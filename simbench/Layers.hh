/**
 * @file
 * Reading per-layer counters off a finished simulation through the
 * simulator's public accessors.
 */

#ifndef SIMBENCH_LAYERS_HH
#define SIMBENCH_LAYERS_HH

#include <string>

#include "Bench.hh"
#include "apps/Cluster.hh"
#include "sim/Types.hh"

namespace san::net {
class Fabric;
}

namespace simbench {

/** Links, switches, and the active hardware of any ActiveSwitch. */
void readFabric(Layers &out, san::net::Fabric &fabric, san::sim::Tick end);

/** Hosts (cpu, mem, I/O bytes), storage nodes, then the fabric. */
void readCluster(Layers &out, san::apps::Cluster &cluster);

/**
 * Call @p fn, an entry point that builds, runs and tears down one
 * Cluster, with the cluster observer installed. The observer fires
 * right after the run, so it stamps @p t.runEnd and, when @p rec
 * keeps layers, reads them while the cluster is still alive. Sets
 * @p t.runStart to the call and @p t.collectEnd to the return.
 */
template <typename Fn>
auto
timedClusterRun(const Recording &rec, ConfigTimes &t, Fn &&fn)
{
    san::apps::clusterObserver() = [&rec, &t](san::apps::Cluster &c,
                                              san::apps::Mode) {
        t.runEnd = Clock::now();
        if (rec.layers != nullptr)
            readCluster(*rec.layers, c);
    };
    t.runStart = Clock::now();
    auto result = fn();
    t.collectEnd = Clock::now();
    san::apps::clusterObserver() = nullptr;
    return result;
}

/** @p v as 0x-prefixed 16-digit hex. */
std::string hex(std::uint64_t v);

} // namespace simbench

#endif // SIMBENCH_LAYERS_HH
