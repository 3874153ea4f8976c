/**
 * @file
 * Shared pieces of the simulator benchmark: host-time spans, the
 * per-layer counter sheet, and the interface every workload
 * implements.
 *
 * A workload is a batch of deterministic simulations run one after
 * another on one thread. Each simulation is one configuration (a
 * mode, a placement or an LB mode) and counts as one operation.
 */

#ifndef SIMBENCH_BENCH_HH
#define SIMBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace simbench {

using Clock = std::chrono::steady_clock;

inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * In-memory span recorder. Each span has a name, a start, an end and
 * a parent id (-1 for a root); nothing is written until the run ends.
 * A disabled recorder keeps nothing and hands out id -1.
 */
class Spans
{
  public:
    explicit Spans(bool enabled) : enabled_(enabled) {}

    /** Record a finished span; returns its id. */
    int add(const std::string &name, int parent, Clock::time_point start,
            Clock::time_point end);
    /** Open a span now; close() sets its end. */
    int open(const std::string &name, int parent);
    void close(int id);

    std::size_t size() const { return spans_.size(); }

    /** Write every span as JSON, times in ns since the recorder's
     * epoch, beside @p header (a JSON object body). */
    bool write(const std::string &path, const std::string &header) const;

  private:
    struct Span {
        std::string name;
        int parent;
        Clock::time_point start, end;
    };

    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
};

/**
 * Per-layer counters of one batch, keyed by metric-like names
 * ("net.link.packets"). add() sums across the batch's simulations,
 * peak() keeps the maximum.
 */
struct Layers {
    std::map<std::string, double> values;

    void add(const std::string &key, double v) { values[key] += v; }
    void peak(const std::string &key, double v);
    double get(const std::string &key) const;
};

/** One simulation of a batch. */
struct ConfigResult {
    std::string name;        //!< "normal", "active+pref", "hub", ...
    double setupS = 0.0;     //!< building the system and inputs
    double runS = 0.0;       //!< Simulation::run (see README)
    double wallS = 0.0;      //!< measured phase: everything but setup
    std::uint64_t events = 0;
    std::string digest;      //!< every simulated output, as text
    std::string failure;     //!< empty when every check passed
};

struct BatchResult {
    std::vector<ConfigResult> configs;
    /** Simulated time, normal configuration over active one. */
    double simSpeedup = 0.0;
};

/**
 * What a batch records beyond its results. Both pointers are null in
 * an untraced batch, which then pays for nothing but its clocks.
 */
struct Recording {
    Spans *spans = nullptr;
    int parent = -1;          //!< span the batch's spans hang under
    Layers *layers = nullptr;
};

/** Host-time stamps of one configuration. The setup span is
 * [setupStart, setupEnd], the run span [runStart, runEnd] and the
 * collect span [runEnd, collectEnd]. */
struct ConfigTimes {
    Clock::time_point setupStart, setupEnd, runStart, runEnd, collectEnd;
};

/** Record one configuration's span and its setup / run / collect
 * children, when @p rec records spans. */
void recordConfig(const Recording &rec, const std::string &name,
                  const ConfigTimes &t);

/** A named workload: one batch per call, inputs from @p seed. */
struct Workload {
    const char *name;
    const char *speedupLabel;   //!< what sim_speedup compares
    const char *reference;      //!< published result, or null
    /** Pending-event depth the event-queue probe holds (recorded from
     * this workload's simulations, see README). */
    unsigned queueDepth;
    BatchResult (*runBatch)(std::uint64_t seed, const Recording &rec);
};

BatchResult runHashJoinBatch(std::uint64_t seed, const Recording &rec);
BatchResult runFabricBatch(std::uint64_t seed, const Recording &rec);
BatchResult runLbChurnBatch(std::uint64_t seed, const Recording &rec);

/** lb_churn's connection count; the lb probes run at the same size. */
inline constexpr std::uint64_t kLbFlows = 65'536;

/** Layer probes: each adds its `*.probe_*` value to @p out and
 * returns an empty string, or a description of the failed recount. */
std::string probeEventQueue(std::uint64_t seed, unsigned depth,
                            Layers &out);
std::string probeCache(std::uint64_t seed, Layers &out);
std::string probeRouteTable(std::uint64_t seed, Layers &out);
std::string probeLb(std::uint64_t seed, Layers &out);

/** FNV-1a over @p text, folded into @p h. */
std::uint64_t fnv1a(const std::string &text,
                    std::uint64_t h = 0xcbf29ce484222325ull);

} // namespace simbench

#endif // SIMBENCH_BENCH_HH
