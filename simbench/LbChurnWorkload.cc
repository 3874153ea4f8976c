/**
 * @file
 * lb_churn: the L4 load balancer (lb::runLb) in Normal (host software)
 * and Active (in-switch) modes, shrunk from lb_scale's million-flow
 * shape. Connections open, carry data, and a tail of them churn
 * (FIN then a fresh SYN), so the active layer writes its connection
 * table as well as reading it; orphan packets exercise the punt path.
 * The seed is the 5-tuple seed of the flow stream.
 */

#include <memory>
#include <string>
#include <vector>

#include "Layers.hh"
#include "apps/DetHash.hh"
#include "lb/LbWorkload.hh"

namespace simbench {

namespace {

using namespace san;

lb::LbWorkloadParams
paramsFor(std::uint64_t seed)
{
    lb::LbWorkloadParams p;
    p.churn.flows = kLbFlows;
    p.churn.dataRounds = 1;
    p.churn.packetBytes = 64;
    p.churn.closeEvery = 4;
    p.churn.churnOpens = 4'096;
    p.churn.orphanEvery = 512;
    p.churn.seed = apps::detHash(0x6c62ull, seed);
    return p;
}

/**
 * Everything runLb builds before its first event, through the same
 * public constructors: the cluster, the balancer (its 32 MB
 * connection table and Maglev table), the churn generator, and in
 * Active mode the handler registration.
 */
struct LbMirror {
    std::unique_ptr<apps::Cluster> cluster;
    std::unique_ptr<lb::LoadBalancer> balancer;
    std::unique_ptr<net::FlowChurnGen> gen;

    LbMirror(apps::Mode mode, const lb::LbWorkloadParams &p)
    {
        const unsigned S = p.senders, B = p.backends;
        apps::ClusterParams cp;
        cp.hosts = S + B + 1;
        cp.storageNodes = 0;
        cp.switchPorts = cp.hosts + 1;
        cp.active.cpus = p.switchCpus;
        cluster = std::make_unique<apps::Cluster>(cp);

        std::vector<net::NodeId> backends;
        for (unsigned b = 0; b < B; ++b)
            backends.push_back(cluster->host(S + b).id());
        lb::LbParams lbp = p.lb;
        lbp.backends = B;
        lbp.tupleSeed = p.churn.seed;
        balancer = std::make_unique<lb::LoadBalancer>(
            lbp, backends, cluster->host(S + B).id());

        net::FlowChurnParams churn = p.churn;
        churn.active = apps::isActive(mode);
        churn.dst = churn.active ? cluster->sw().id()
                                 : cluster->host(S + B).id();
        churn.handlerId = lb::kLbHandlerId;
        churn.handlerCpus = p.switchCpus;
        churn.spacing = sim::ns(500) * S;
        std::vector<net::Adapter *> senders;
        for (unsigned s = 0; s < S; ++s)
            senders.push_back(&cluster->host(s).hca());
        gen = std::make_unique<net::FlowChurnGen>(cluster->sim(), senders,
                                                  churn);
        if (churn.active)
            cluster->sw().registerHandler(lb::kLbHandlerId, "lb",
                                          balancer->makeHandler());
    }
};

/** Busy + stall ticks of the lb host's CPU (simulated). */
sim::Tick
lbHostBusy(const apps::RunStats &s, unsigned lbHost)
{
    const cpu::TimeBreakdown &h = s.hosts.at(lbHost);
    return h.busy + h.stall;
}

/**
 * The balancer's accounting identities; empty when they hold. Every
 * packet is a lookup: a SYN resolves by insert, any other packet by a
 * hot-index hit, a table hit or a miss.
 */
std::string
checkAccounting(const lb::LbRunResult &r)
{
    const apps::LbStats &lb = r.stats.lb;
    if (lb.lookups != r.gen.opens + lb.hotHits + lb.tableHits + lb.misses)
        return "lookups " + std::to_string(lb.lookups) +
               " != opens + hot + table + misses";
    if (lb.flowsTracked != lb.inserts - lb.removes)
        return "tracked flows " + std::to_string(lb.flowsTracked) +
               " != inserts - removes";
    if (r.gen.posted != lb.forwarded + lb.punts)
        return "posted " + std::to_string(r.gen.posted) +
               " != forwarded + punts";
    if (lb.insertFailures != 0)
        return std::to_string(lb.insertFailures) + " insert failures";
    return {};
}

std::string
lbDigest(const apps::LbStats &lb)
{
    return "lookups=" + std::to_string(lb.lookups) +
           " hot=" + std::to_string(lb.hotHits) +
           " table=" + std::to_string(lb.tableHits) +
           " misses=" + std::to_string(lb.misses) +
           " inserts=" + std::to_string(lb.inserts) +
           " removes=" + std::to_string(lb.removes) +
           " punts=" + std::to_string(lb.punts) +
           " peak_flows=" + std::to_string(lb.peakFlows);
}

} // namespace

BatchResult
runLbChurnBatch(std::uint64_t seed, const Recording &rec)
{
    const lb::LbWorkloadParams params = paramsFor(seed);
    const unsigned lbHost = params.senders + params.backends;

    BatchResult out;
    sim::Tick normalBusy = 0, activeBusy = 0;
    std::string normalDecisions;
    for (const apps::Mode mode : {apps::Mode::Normal, apps::Mode::Active}) {
        ConfigResult c;
        c.name = apps::modeName(mode);
        ConfigTimes t;
        t.setupStart = Clock::now();
        auto mirror = std::make_unique<LbMirror>(mode, params);
        t.setupEnd = Clock::now();
        mirror.reset();

        const lb::LbRunResult r = timedClusterRun(
            rec, t, [&] { return lb::runLb(mode, params); });
        const apps::RunStats &s = r.stats;

        c.setupS = seconds(t.setupStart, t.setupEnd);
        c.runS = seconds(t.runStart, t.runEnd) - c.setupS;
        c.wallS = seconds(t.runStart, t.collectEnd) - c.setupS;
        c.events = s.eventsExecuted;
        const std::string decisions = lbDigest(s.lb);
        const sim::Tick busy = lbHostBusy(s, lbHost);
        c.digest = "exec_ps=" + std::to_string(s.execTime) + " " +
                   decisions + " lb_host_busy_ps=" + std::to_string(busy) +
                   " events=" + std::to_string(s.eventsExecuted) +
                   " fingerprint=" + hex(s.fingerprint);
        c.failure = checkAccounting(r);
        if (mode == apps::Mode::Normal) {
            normalBusy = busy;
            normalDecisions = decisions;
        } else {
            activeBusy = busy;
            // One decision core serves both modes: identical counters.
            if (c.failure.empty() && decisions != normalDecisions)
                c.failure = "decisions differ from normal mode";
        }
        if (rec.layers != nullptr) {
            const apps::LbStats &lb = s.lb;
            rec.layers->add("lb.lookups", static_cast<double>(lb.lookups));
            rec.layers->add("lb.hot_hits", static_cast<double>(lb.hotHits));
            rec.layers->add("lb.punts", static_cast<double>(lb.punts));
            rec.layers->add("lb.insert_failures",
                            static_cast<double>(lb.insertFailures));
            rec.layers->peak("lb.peak_flows",
                             static_cast<double>(lb.peakFlows));
        }
        recordConfig(rec, c.name, t);
        out.configs.push_back(std::move(c));
    }
    out.simSpeedup = activeBusy > 0 ? static_cast<double>(normalBusy) /
                                          static_cast<double>(activeBusy)
                                    : 0.0;
    return out;
}

} // namespace simbench
