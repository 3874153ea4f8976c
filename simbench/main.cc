/**
 * @file
 * Simulator benchmark: command line, batch loop and reporting.
 *
 * Usage: simbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--trace-out FILE]
 *
 * Repeats the workload's batch of simulations until S seconds of host
 * time have passed and reports medians over batches, the first (warm-up)
 * batch excluded. With --trace 0 it
 * prints the end-to-end metrics; with --trace 1 it alternates untraced
 * and traced batches, runs the layer probes, and prints the per-layer
 * metrics plus the tracing overhead. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "Bench.hh"
#include "Layers.hh"

namespace simbench {
namespace {

#ifndef __OPTIMIZE__
constexpr bool kOptimized = false;
#else
constexpr bool kOptimized = true;
#endif

/**
 * The event-queue probe's pending depths: the queue size sampled every
 * 1024th event over each workload's simulations at seed 1, averaged
 * over the samples (see README.md, "Layer probes").
 */
const Workload kWorkloads[] = {
    {"hashjoin", "normal/active exec time", "1.10x (paper, Fig 5)", 3,
     runHashJoinBatch},
    {"fabric_offload", "normal/edge makespan", nullptr, 641,
     runFabricBatch},
    {"lb_churn", "lb-host busy time, normal/active", nullptr, 7,
     runLbChurnBatch},
};

struct Options {
    const Workload *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: simbench --workload "
                 "hashjoin|fabric_offload|lb_churn --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

bool
parseNumber(const char *text, double *out)
{
    char *end = nullptr;
    *out = std::strtod(text, &end);
    return end != text && *end == '\0' && std::isfinite(*out);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        double num = 0;
        if (flag == "--workload") {
            for (const Workload &w : kWorkloads)
                if (std::strcmp(w.name, v) == 0)
                    o.workload = &w;
            if (o.workload == nullptr)
                usage("unknown workload");
        } else if (flag == "--seed") {
            char *end = nullptr;
            o.seed = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0' || v[0] == '-')
                usage("--seed needs a non-negative integer");
            haveSeed = true;
        } else if (flag == "--seconds") {
            if (!parseNumber(v, &num) || num <= 0)
                usage("--seconds needs a positive number");
            o.seconds = num;
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace needs 0 or 1");
            o.trace = v[0] == '1';
            haveTrace = true;
        } else if (flag == "--trace-out") {
            o.traceOut = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (o.workload == nullptr || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

/** Host and build identity, as the body of a JSON object. */
std::string
hostJson()
{
    return "\"cpu\": \"" + cpuModel() + "\", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"compiler\": \"" SIMBENCH_COMPILER
           "\", \"build_type\": \"" SIMBENCH_BUILD_TYPE
           "\", \"optimized\": " +
           (kOptimized ? "true" : "false");
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** "normal+pref" -> "normal_pref": metric names allow no '+'. */
std::string
metricName(std::string config)
{
    std::replace(config.begin(), config.end(), '+', '_');
    return config;
}

/** Host-time sums of one batch. */
struct BatchTimes {
    double setupS = 0, wallS = 0, runS = 0;
    std::map<std::string, double> configRunS;
};

BatchTimes
timesOf(const BatchResult &b)
{
    BatchTimes t;
    for (const ConfigResult &c : b.configs) {
        t.setupS += c.setupS;
        t.wallS += c.wallS;
        t.runS += c.runS;
        t.configRunS[metricName(c.name)] = c.runS;
    }
    return t;
}

struct Metric {
    const char *name;
    const char *unit;
    double value;
};

/** Per-layer metrics from one traced batch's counters @p L, the probes
 * @p P, and medians over the traced batches' host times. */
std::vector<Metric>
layerMetrics(const Layers &L, const Layers &P,
             const std::vector<BatchTimes> &traced, std::uint64_t events,
             double overheadPct)
{
    std::vector<double> runs;
    for (const BatchTimes &t : traced)
        runs.push_back(t.runS);
    const double runS = median(runs);
    const auto cfgRun = [&traced](const char *cfg) {
        std::vector<double> v;
        for (const BatchTimes &t : traced)
            if (const auto it = t.configRunS.find(cfg);
                it != t.configRunS.end())
                v.push_back(it->second);
        return median(v);
    };
    const double chunks = L.get("active.chunks_staged");
    const double stalls = L.get("active.dispatch_stalls");
    const double pageHits = L.get("mem.host.dram.page_hits");
    const double lookups = L.get("lb.lookups");
    return {
        {"sim.run_s", "s", runS},
        {"sim.events", "count", static_cast<double>(events)},
        {"sim.events_per_s", "1/s", ratio(static_cast<double>(events), runS)},
        {"sim.probe_ns_per_event", "ns", P.get("sim.probe_ns_per_event")},
        {"mem.host.l1d.accesses", "count", L.get("mem.host.l1d.accesses")},
        {"mem.host.l1d.miss_ratio", "ratio",
         ratio(L.get("mem.host.l1d.misses"), L.get("mem.host.l1d.accesses"))},
        {"mem.host.l2.misses", "count", L.get("mem.host.l2.misses")},
        {"mem.host.dtlb.misses", "count", L.get("mem.host.dtlb.misses")},
        {"mem.host.dram.page_hit_ratio", "ratio",
         ratio(pageHits, pageHits + L.get("mem.host.dram.page_misses"))},
        {"mem.switch.l1d.accesses", "count", L.get("mem.switch.l1d.accesses")},
        {"mem.probe_ns_per_access", "ns", P.get("mem.probe_ns_per_access")},
        {"cpu.host.busy_ms", "ms", L.get("cpu.host.busy_ticks") / 1e9},
        {"cpu.host.stall_ms", "ms", L.get("cpu.host.stall_ticks") / 1e9},
        {"cpu.host.utilization", "ratio",
         ratio(L.get("cpu.host.busy_ticks") + L.get("cpu.host.stall_ticks"),
               L.get("cpu.host.total_ticks"))},
        {"cpu.switch.busy_ms", "ms", L.get("cpu.switch.busy_ticks") / 1e9},
        {"cpu.switch.stall_ms", "ms", L.get("cpu.switch.stall_ticks") / 1e9},
        {"net.link.packets", "count", L.get("net.link.packets")},
        {"net.link.busy_ratio", "ratio",
         ratio(L.get("net.link.busy_ticks"), L.get("net.link.span_ticks"))},
        {"net.switch.packets_routed", "count",
         L.get("net.switch.packets_routed")},
        {"net.switch.packets_local", "count",
         L.get("net.switch.packets_local")},
        {"net.packets_per_s", "1/s", ratio(L.get("net.link.packets"), runS)},
        {"net.probe_route_ns", "ns", P.get("net.probe_route_ns")},
        {"active.chunks_staged", "count", chunks},
        {"active.dispatch_stalls", "count", stalls},
        {"active.first_try_ratio", "ratio", ratio(chunks, chunks + stalls)},
        {"active.buffers.alloc_failures", "count",
         L.get("active.buffers.alloc_failures")},
        {"active.buffers.peak", "count", L.get("active.buffers.peak")},
        {"active.atb.conflicts", "count", L.get("active.atb.conflicts")},
        {"cfg.normal.run_s", "s", cfgRun("normal")},
        {"cfg.normal_pref.run_s", "s", cfgRun("normal_pref")},
        {"cfg.active.run_s", "s", cfgRun("active")},
        {"cfg.active_pref.run_s", "s", cfgRun("active_pref")},
        {"cfg.edge.run_s", "s", cfgRun("edge")},
        {"cfg.mid.run_s", "s", cfgRun("mid")},
        {"cfg.hub.run_s", "s", cfgRun("hub")},
        {"io.requests", "count", L.get("io.requests")},
        {"io.disk_bytes", "bytes", L.get("io.disk_bytes")},
        {"io.scsi_transactions", "count", L.get("io.scsi_transactions")},
        {"host.io_bytes", "bytes", L.get("host.io_bytes")},
        {"lb.lookups", "count", lookups},
        {"lb.hot_hit_ratio", "ratio", ratio(L.get("lb.hot_hits"), lookups)},
        {"lb.punt_ratio", "ratio", ratio(L.get("lb.punts"), lookups)},
        {"lb.insert_failures", "count", L.get("lb.insert_failures")},
        {"lb.peak_flows", "count", L.get("lb.peak_flows")},
        {"lb.probe_lookup_ns", "ns", P.get("lb.probe_lookup_ns")},
        {"lb.probe_insert_ns", "ns", P.get("lb.probe_insert_ns")},
        {"lb.probe_remove_ns", "ns", P.get("lb.probe_remove_ns")},
        {"lb.probe_maglev_ns", "ns", P.get("lb.probe_maglev_ns")},
        {"trace.overhead_pct", "%", overheadPct},
    };
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name, metrics[i].value,
                    metrics[i].unit);
    std::printf("}}\n");
}

int
run(const Options &o)
{
    const Workload &w = *o.workload;
    std::printf("host: {%s}\n", hostJson().c_str());
    if (!kOptimized) {
        std::fprintf(stderr, "error: refusing to report from a build "
                             "without optimisation\n");
        return 3;
    }

    Spans spans(o.trace);
    const int root = spans.open(w.name, -1);
    std::uint64_t attempted = 0, failed = 0, firstDigest = 0;
    double speedup = 0;
    std::vector<BatchTimes> plain, traced;
    Layers layers;
    std::uint64_t events = 0;

    const Clock::time_point start = Clock::now();
    for (unsigned i = 0;; ++i) {
        const bool measureDone = seconds(start, Clock::now()) >= o.seconds;
        if (measureDone && !plain.empty() && (!o.trace || !traced.empty()))
            break;
        // Batch 0 warms caches and the allocator: it is checked but
        // not timed. After it, a traced run alternates untraced and
        // traced batches.
        const bool warmUp = i == 0;
        const bool tracedBatch = o.trace && !warmUp && i % 2 == 0;
        Layers batchLayers;
        Recording rec;
        int batchSpan = -1;
        if (tracedBatch) {
            batchSpan = spans.open("batch", root);
            rec = Recording{&spans, batchSpan, &batchLayers};
        }
        const BatchResult b = w.runBatch(o.seed, rec);
        spans.close(batchSpan);

        std::uint64_t digest = 0xcbf29ce484222325ull;
        for (const ConfigResult &c : b.configs) {
            digest = fnv1a(c.name + ": " + c.digest + "\n", digest);
            if (!c.failure.empty()) {
                ++failed;
                std::fprintf(stderr, "FAILED %s/%s: %s\n", w.name,
                             c.name.c_str(), c.failure.c_str());
            }
        }
        attempted += b.configs.size();
        if (i == 0) {
            for (const ConfigResult &c : b.configs)
                std::printf("sim[%s/%s]: %s\n", w.name, c.name.c_str(),
                            c.digest.c_str());
            std::printf("digest: %s\n", hex(digest).c_str());
            firstDigest = digest;
            speedup = b.simSpeedup;
        } else if (digest != firstDigest) {
            failed += b.configs.size();
            std::fprintf(stderr,
                         "FAILED %s: batch %u digest %s != first %s\n",
                         w.name, i, hex(digest).c_str(),
                         hex(firstDigest).c_str());
        }
        if (!warmUp)
            (tracedBatch ? traced : plain).push_back(timesOf(b));
        if (tracedBatch && traced.size() == 1) {
            layers = batchLayers;
            for (const ConfigResult &c : b.configs)
                events += c.events;
        }
    }

    std::printf("sim_speedup: %.4fx simulated, %s; %s\n", speedup,
                w.speedupLabel,
                w.reference ? (std::string("reference ") + w.reference).c_str()
                            : "unvalidated: no reference result");

    std::vector<double> wall, setup;
    for (const BatchTimes &t : plain) {
        wall.push_back(t.wallS);
        setup.push_back(t.setupS);
    }
    std::printf("batches: %zu untraced, %zu traced\n", plain.size(),
                traced.size());

    bool correct = failed == 0;
    if (!o.trace) {
        printResult(correct, attempted, failed,
                    {{"wall_s", "s", median(wall)},
                     {"setup_s", "s", median(setup)},
                     {"peak_rss_mb", "MB", peakRssMb()},
                     {"sim_speedup", "x", speedup}});
        return 0;
    }

    // Layer probes, each under its own span.
    Layers probes;
    const int probeRoot = spans.open("probes", root);
    const std::pair<const char *, std::function<std::string()>> kProbes[] = {
        {"probe.sim",
         [&] { return probeEventQueue(o.seed, w.queueDepth, probes); }},
        {"probe.mem", [&] { return probeCache(o.seed, probes); }},
        {"probe.net", [&] { return probeRouteTable(o.seed, probes); }},
        {"probe.lb", [&] { return probeLb(o.seed, probes); }},
    };
    for (const auto &[name, probe] : kProbes) {
        const int id = spans.open(name, probeRoot);
        const std::string err = probe();
        spans.close(id);
        if (!err.empty()) {
            correct = false;
            std::fprintf(stderr, "FAILED %s: %s\n", name, err.c_str());
        }
    }
    spans.close(probeRoot);
    spans.close(root);

    std::vector<double> tracedWall;
    for (const BatchTimes &t : traced)
        tracedWall.push_back(t.wallS);
    const double overheadPct =
        100.0 * (median(tracedWall) / median(wall) - 1.0);
    std::printf("trace overhead: %.2f%% (median traced batch %.4f s vs "
                "untraced %.4f s)\n",
                overheadPct, median(tracedWall), median(wall));
    if (!o.traceOut.empty()) {
        const std::string header =
            "\"workload\": \"" + std::string(w.name) + "\", \"seed\": " +
            std::to_string(o.seed) + ", \"host\": {" + hostJson() +
            "}, \"overhead_pct\": " + std::to_string(overheadPct);
        if (spans.write(o.traceOut, header))
            std::printf("trace: %zu spans written to %s\n", spans.size(),
                        o.traceOut.c_str());
        else
            std::fprintf(stderr, "warning: cannot write %s\n",
                         o.traceOut.c_str());
    }
    printResult(correct, attempted, failed,
                layerMetrics(layers, probes, traced, events, overheadPct));
    return 0;
}

} // namespace
} // namespace simbench

int
main(int argc, char **argv)
{
    return simbench::run(simbench::parse(argc, argv));
}
