/**
 * @file
 * hashjoin: the paper's Fig 5 HashJoin in all four modes.
 *
 * Sized between fig05's --quick shape (4 MB R, 16 MB S) and paper size
 * (16 MB R, 128 MB S): the host memory model dominates host time here,
 * while the network carries only a few hundred routed packets.
 */

#include <memory>
#include <string>
#include <vector>

#include "Layers.hh"
#include "apps/DetHash.hh"
#include "apps/HashJoin.hh"

namespace simbench {

namespace {

using namespace san;

constexpr std::uint64_t kRBytes = 8ull << 20;
constexpr std::uint64_t kSBytes = 32ull << 20;
constexpr unsigned kSetupRepeats = 7;

apps::HashJoinParams
paramsFor(std::uint64_t seed)
{
    apps::HashJoinParams p;
    p.rBytes = kRBytes;
    p.sBytes = kSBytes;
    p.seed = apps::detHash(0x6a6f696eull, seed);
    return p;
}

/**
 * The join's answer, recounted without the simulator: S records whose
 * bit-vector test passes. runHashJoin derives its match stream from
 * the same seed (seed ^ 0xabcdef), so every mode must report this.
 */
std::uint64_t
expectedSurvivors(const apps::HashJoinParams &p)
{
    const std::uint64_t matchSeed = p.seed ^ 0xabcdef;
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < p.sBytes / p.recordBytes; ++i)
        n += apps::detChance(matchSeed, i, p.reductionFactor);
    return n;
}

} // namespace

BatchResult
runHashJoinBatch(std::uint64_t seed, const Recording &rec)
{
    const apps::HashJoinParams params = paramsFor(seed);
    const std::string expected = std::to_string(expectedSurvivors(params));

    BatchResult out;
    sim::Tick normalExec = 0, activeExec = 0;
    for (const apps::Mode mode : apps::allModes) {
        ConfigResult c;
        c.name = apps::modeName(mode);
        ConfigTimes t;

        // runHashJoin builds its Cluster inside; time an identical
        // construction through the public constructor instead. One
        // takes about 0.1 ms, so keep the median of several.
        apps::ClusterParams cp;
        cp.hostMem = mem::scaledHostMemoryParams();
        std::vector<double> builds;
        t.setupStart = Clock::now();
        for (unsigned i = 0; i < kSetupRepeats; ++i) {
            const Clock::time_point b0 = Clock::now();
            auto mirror = std::make_unique<apps::Cluster>(cp);
            builds.push_back(seconds(b0, Clock::now()));
        }
        t.setupEnd = Clock::now();

        const apps::RunStats s = timedClusterRun(
            rec, t, [&] { return apps::runHashJoin(mode, params); });

        c.setupS = median(builds);
        c.runS = seconds(t.runStart, t.runEnd) - c.setupS;
        c.wallS = seconds(t.runStart, t.collectEnd) - c.setupS;
        c.events = s.eventsExecuted;
        c.digest = "exec_ps=" + std::to_string(s.execTime) +
                   " checksum=" + s.checksum +
                   " host_io_bytes=" + std::to_string(s.hostIoBytes) +
                   " events=" + std::to_string(s.eventsExecuted) +
                   " fingerprint=" + hex(s.fingerprint);
        if (s.checksum != expected)
            c.failure = "checksum " + s.checksum + " != recount " + expected;
        if (mode == apps::Mode::Normal)
            normalExec = s.execTime;
        if (mode == apps::Mode::Active)
            activeExec = s.execTime;
        recordConfig(rec, c.name, t);
        out.configs.push_back(std::move(c));
    }
    out.simSpeedup = activeExec > 0 ? static_cast<double>(normalExec) /
                                          static_cast<double>(activeExec)
                                    : 0.0;
    return out;
}

} // namespace simbench
