/**
 * @file
 * fabric_offload: the 1/16 filter handler at four placements on a
 * k=8 fat-tree built entirely of ActiveSwitches (128 hosts, 80
 * switches).
 *
 * Every host but one collector streams messages; the filter passes
 * 1/16 of each message's bytes on to the collector. Placements:
 *   normal  no handler: raw streams converge on the collector;
 *   edge    the filter runs on each sender's own edge switch;
 *   mid     on each pod's first aggregation switch;
 *   hub     on core switch 0, which every stream funnels through.
 * The seed picks the collector and each sender's start offset.
 */

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "Layers.hh"
#include "active/ActiveSwitch.hh"
#include "apps/DetHash.hh"
#include "net/Topology.hh"
#include "obs/Fingerprint.hh"
#include "sim/Simulation.hh"

namespace simbench {

namespace {

using namespace san;
using net::NodeId;

constexpr unsigned kArity = 8;
constexpr unsigned kMessages = 32;          //!< per sender
constexpr std::uint32_t kMessageBytes = 4096;
constexpr std::uint8_t kFilterHandlerId = 7;
constexpr std::uint32_t kFilterDivisor = 16;
constexpr unsigned kSwitchCpus = 4;

enum class Placement { Normal, Edge, Mid, Hub };
constexpr Placement kPlacements[] = {Placement::Normal, Placement::Edge,
                                     Placement::Mid, Placement::Hub};

const char *
placementName(Placement p)
{
    switch (p) {
    case Placement::Normal: return "normal";
    case Placement::Edge: return "edge";
    case Placement::Mid: return "mid";
    case Placement::Hub: return "hub";
    }
    return "?";
}

/** Bytes the collector receives for one message at @p p. */
std::uint64_t
deliveredBytes(Placement p)
{
    if (p == Placement::Normal)
        return kMessageBytes;
    return std::max<std::uint64_t>(1, kMessageBytes / kFilterDivisor);
}

/** Stateless filter: scan each chunk, forward bytes/16 per message. */
sim::Task
filterBody(active::HandlerContext &ctx, NodeId collector)
{
    for (;;) {
        const active::StreamChunk chunk = co_await ctx.nextChunk();
        co_await ctx.awaitValid(chunk, 0, chunk.bytes);
        co_await ctx.compute(32 + chunk.bytes / 4);
        const bool last = chunk.lastOfMessage;
        const std::uint64_t msgBytes = chunk.messageBytes;
        const std::uint32_t tag = chunk.tag;
        ctx.deallocateOne(chunk.address);
        if (last)
            co_await ctx.send(collector,
                              std::max<std::uint64_t>(
                                  1, msgBytes / kFilterDivisor),
                              std::nullopt, nullptr, tag);
    }
}

sim::Task
senderPump(net::Adapter &host, NodeId dst,
           std::optional<net::ActiveHeader> hdrBase, sim::Tick startDelay,
           sim::Tick spacing, unsigned slot)
{
    co_await sim::Delay{startDelay};
    for (unsigned j = 0; j < kMessages; ++j) {
        std::optional<net::ActiveHeader> hdr = hdrBase;
        if (hdr) {
            // A 16 MB ATB window per sender, 128 KB per message, so
            // senders sharing one handler instance never collide.
            hdr->address = (slot + 1) * 0x01000000u + (j % 128u) * 0x20000u;
        }
        host.sendMessage(dst, kMessageBytes, hdr, nullptr,
                         slot * 4096u + j + 1);
        co_await sim::Delay{spacing};
    }
}

sim::Task
drainCollector(net::Adapter &host, std::uint64_t expected,
               sim::Tick *lastAt, std::uint64_t *msgs, std::uint64_t *bytes)
{
    for (std::uint64_t i = 0; i < expected; ++i) {
        const net::Message m = co_await host.recvQueue().pop();
        ++*msgs;
        *bytes += m.bytes;
        *lastAt = std::max(*lastAt, m.completedAt);
    }
}

/** One simulated system. Members are destroyed bottom-up, the
 * simulation (which owns the coroutine frames) last. */
struct World {
    sim::Simulation sim;
    obs::RunFingerprint fp;
    net::Fabric fabric{sim};
    net::Topology topo;
    std::vector<active::ActiveSwitch *> switches;
    sim::Tick lastAt = 0;
    std::uint64_t msgs = 0, bytes = 0, senders = 0;
};

std::unique_ptr<World>
build(Placement pl, std::uint64_t seed)
{
    auto w = std::make_unique<World>();
    w->sim.events().setObserver(&w->fp);
    active::ActiveConfig acfg;
    acfg.cpus = kSwitchCpus;
    w->topo = net::buildFatTree<active::ActiveSwitch>(
        w->fabric, net::FatTreeParams{kArity}, acfg);
    const net::Topology &topo = w->topo;

    const unsigned hosts = static_cast<unsigned>(topo.hosts.size());
    const unsigned collector =
        static_cast<unsigned>(apps::detHash(seed, 0) % hosts);
    const NodeId collectorId = topo.hosts[collector]->id();

    for (auto *group : {&topo.edge, &topo.aggregation, &topo.core})
        for (net::Switch *sw : *group)
            w->switches.push_back(static_cast<active::ActiveSwitch *>(sw));
    for (active::ActiveSwitch *sw : w->switches)
        sw->registerHandler(kFilterHandlerId, "filter",
                            [collectorId](active::HandlerContext &ctx) {
                                return filterBody(ctx, collectorId);
                            });

    const unsigned half = kArity / 2;
    const auto targetOf = [&](unsigned h) -> net::Switch * {
        switch (pl) {
        case Placement::Edge: return topo.edge[h / half];
        case Placement::Mid: return topo.aggregation[topo.hostGroup[h] * half];
        case Placement::Hub: return topo.core[0];
        case Placement::Normal: break;
        }
        return nullptr;
    };

    const std::uint64_t pkts =
        (kMessageBytes + w->fabric.mtu() - 1) / w->fabric.mtu();
    const sim::Tick spacing = sim::ns(kMessageBytes + pkts * net::headerBytes);

    // Senders sharing a target spread round-robin over its CPUs.
    std::unordered_map<const net::Switch *, unsigned> cpuOf;
    for (unsigned h = 0; h < hosts; ++h) {
        if (h == collector)
            continue;
        ++w->senders;
        std::optional<net::ActiveHeader> hdr;
        NodeId dst = collectorId;
        if (net::Switch *target = targetOf(h)) {
            net::ActiveHeader a;
            a.handlerId = kFilterHandlerId;
            a.cpuId = static_cast<std::uint8_t>(cpuOf[target]++ % kSwitchCpus);
            hdr = a;
            dst = target->id();
        }
        const sim::Tick start = apps::detHash(seed, h + 1) % spacing;
        w->sim.spawn(senderPump(*topo.hosts[h], dst, hdr, start, spacing, h));
    }
    w->sim.spawn(drainCollector(*topo.hosts[collector],
                                w->senders * kMessages, &w->lastAt,
                                &w->msgs, &w->bytes));
    return w;
}

} // namespace

BatchResult
runFabricBatch(std::uint64_t seed, const Recording &rec)
{
    BatchResult out;
    sim::Tick normalSpan = 0, edgeSpan = 0;
    for (const Placement pl : kPlacements) {
        ConfigResult c;
        c.name = placementName(pl);
        ConfigTimes t;
        t.setupStart = Clock::now();
        std::unique_ptr<World> w = build(pl, seed);
        t.setupEnd = t.runStart = Clock::now();
        w->sim.run();
        t.runEnd = Clock::now();

        std::uint64_t chunks = 0, stalls = 0;
        for (const active::ActiveSwitch *sw : w->switches) {
            chunks += sw->chunksStaged();
            stalls += sw->dispatchStalls();
        }
        if (rec.layers != nullptr)
            readFabric(*rec.layers, w->fabric, w->sim.now());
        const std::uint64_t wantMsgs = w->senders * kMessages;
        const std::uint64_t wantBytes = wantMsgs * deliveredBytes(pl);
        if (w->msgs != wantMsgs || w->bytes != wantBytes)
            c.failure = "collector got " + std::to_string(w->msgs) +
                        " msgs / " + std::to_string(w->bytes) +
                        " B, want " + std::to_string(wantMsgs) + " / " +
                        std::to_string(wantBytes);
        c.events = w->fp.eventsFolded();
        c.digest = "makespan_ps=" + std::to_string(w->lastAt) +
                   " msgs=" + std::to_string(w->msgs) +
                   " bytes=" + std::to_string(w->bytes) +
                   " chunks=" + std::to_string(chunks) +
                   " stalls=" + std::to_string(stalls) +
                   " events=" + std::to_string(c.events) +
                   " fingerprint=" + hex(w->fp.value());
        if (pl == Placement::Normal)
            normalSpan = w->lastAt;
        if (pl == Placement::Edge)
            edgeSpan = w->lastAt;
        w.reset();
        t.collectEnd = Clock::now();

        c.setupS = seconds(t.setupStart, t.setupEnd);
        c.runS = seconds(t.runStart, t.runEnd);
        c.wallS = seconds(t.runStart, t.collectEnd);
        recordConfig(rec, c.name, t);
        out.configs.push_back(std::move(c));
    }
    out.simSpeedup = edgeSpan > 0 ? static_cast<double>(normalSpan) /
                                        static_cast<double>(edgeSpan)
                                  : 0.0;
    return out;
}

} // namespace simbench
