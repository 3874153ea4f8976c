/**
 * @file
 * Tests for active-switch resource management: buffer quotas across
 * instances, pending-queue fairness, per-instance ordering, and
 * exact-address deallocation.
 */

#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "active/ActiveSwitch.hh"
#include "host/Host.hh"
#include "io/StorageNode.hh"
#include "net/Fabric.hh"
#include "sim/Simulation.hh"

namespace {

using namespace san;
using namespace san::sim;
using namespace san::active;

struct Fixture {
    Simulation s;
    net::Fabric fabric{s};
    ActiveSwitch *sw;
    host::Host *h;
    net::Adapter *tca;
    io::StorageNode *storage;

    explicit Fixture(ActiveConfig cfg = {},
                     net::SwitchParams sw_params = net::SwitchParams{8})
    {
        sw = &fabric.addSwitch<ActiveSwitch>(sw_params, cfg);
        h = new host::Host(s, "host0", fabric);
        tca = &fabric.addAdapter("tca0");
        storage = new io::StorageNode(s, *tca);
        fabric.connect(*sw, 0, h->hca());
        fabric.connect(*sw, 1, *tca);
        fabric.computeRoutes();
        h->start();
        storage->start();
    }

    ~Fixture()
    {
        delete storage;
        delete h;
    }
};

/** The slow/fast two-instance starvation check, under @p sw_params:
 * active-dispatch fairness must hold regardless of which queueing
 * policy carries the packets to the dispatch unit. */
void
slowInstanceDoesNotStarveFastOne(const net::SwitchParams &sw_params)
{
    // Two CPUs: CPU 0 runs a pathologically slow consumer, CPU 1 a
    // fast one. Both stream 16 KB from disk concurrently. Without
    // per-instance buffer quotas the slow stream's backlog would
    // hold all 16 buffers and serialize the fast one behind it.
    ActiveConfig cfg;
    cfg.cpus = 2;
    Fixture f(cfg, sw_params);
    Tick fast_done = 0, slow_done = 0;
    const std::uint64_t bytes = 16 * 1024;

    f.sw->registerHandler(1, "stream",
                          [&](HandlerContext &ctx) -> Task {
        const bool slow = ctx.cpuIndex() == 0;
        std::uint64_t got = 0;
        while (got < bytes) {
            StreamChunk c = co_await ctx.nextChunk();
            co_await ctx.awaitValid(c, 0, c.bytes);
            co_await ctx.compute(slow ? 50000 : 50);
            got += c.bytes;
            ctx.deallocateThrough(c.address + c.bytes);
        }
        (slow ? slow_done : fast_done) = ctx.sim().now();
    });

    f.s.spawn([](host::Host &h, net::NodeId st, net::NodeId sw_id,
                 std::uint64_t n) -> Task {
        co_await h.postReadTo(st, 0, n, sw_id,
                              net::ActiveHeader{1, 0, 0});
        co_await h.postReadTo(st, n, n, sw_id,
                              net::ActiveHeader{1, 0, 1});
    }(*f.h, f.storage->id(), f.sw->id(), bytes));
    f.s.run();

    ASSERT_GT(fast_done, 0u);
    ASSERT_GT(slow_done, 0u);
    // The fast stream must finish long before the slow one (i.e. it
    // was not serialized behind the slow stream's backlog).
    EXPECT_LT(fast_done, slow_done / 2);
}

TEST(ActiveFairness, SlowInstanceDoesNotStarveFastOne)
{
    slowInstanceDoesNotStarveFastOne(net::SwitchParams{8});
}

TEST(ActiveFairness, SlowInstanceDoesNotStarveFastOneUnderVoq)
{
    // Same property with the active hardware composed over VOQ+iSLIP:
    // dispatch fairness must not depend on the default central queue.
    net::SwitchParams params{8};
    params.policy.kind = net::SwitchPolicyKind::Voq;
    slowInstanceDoesNotStarveFastOne(params);
}

TEST(ActiveFairness, SlowInstanceDoesNotStarveFastOneUnderCrosspoint)
{
    net::SwitchParams params{8};
    params.policy.kind = net::SwitchPolicyKind::Crosspoint;
    slowInstanceDoesNotStarveFastOne(params);
}

TEST(ActiveFairness, QuotaSplitsPoolAcrossInstances)
{
    ActiveConfig cfg;
    cfg.cpus = 4;
    Fixture f(cfg);
    // With up to 4 instances live the quota is pool/instances but
    // never below 2.
    EXPECT_EQ(f.sw->bufferQuota(), 16u); // no instances yet
}

TEST(ActiveFairness, PerInstanceOrderPreservedUnderStalls)
{
    // A single slow instance with a deep stream: chunks must arrive
    // at the handler in file order even when many wait in the
    // pending queue.
    Fixture f;
    std::vector<std::uint32_t> addrs;
    const std::uint64_t bytes = 32 * 512;
    f.sw->registerHandler(1, "ordered",
                          [&](HandlerContext &ctx) -> Task {
        std::uint64_t got = 0;
        while (got < bytes) {
            StreamChunk c = co_await ctx.nextChunk();
            co_await ctx.awaitValid(c, 0, c.bytes);
            co_await ctx.compute(10000); // force backlog
            addrs.push_back(c.address);
            got += c.bytes;
            ctx.deallocateThrough(c.address + c.bytes);
        }
    });
    f.s.spawn([](host::Host &h, net::NodeId st, net::NodeId sw_id,
                 std::uint64_t n) -> Task {
        co_await h.postReadTo(st, 0, n, sw_id,
                              net::ActiveHeader{1, 0, 0});
    }(*f.h, f.storage->id(), f.sw->id(), bytes));
    f.s.run();
    ASSERT_EQ(addrs.size(), bytes / 512);
    for (std::size_t i = 1; i < addrs.size(); ++i)
        EXPECT_EQ(addrs[i], addrs[i - 1] + 512);
    EXPECT_GT(f.sw->dispatchStalls(), 0u);
}

/** An active switch fed arrivals directly, as its ports would. */
class ProbeSwitch : public ActiveSwitch
{
  public:
    using ActiveSwitch::ActiveSwitch;

    /** Deliver one single-packet active message for handler 1 on
     * CPU @p cpu, mapped at @p address. */
    void
    feed(std::uint8_t cpu, std::uint32_t address)
    {
        net::Arrival a;
        a.pkt.src = 100;
        a.pkt.dst = id();
        a.pkt.active = true;
        a.pkt.activeHdr = net::ActiveHeader{1, address, cpu};
        deliverLocal(std::move(a));
    }
};

TEST(ActiveFairness, DispatchQueuesMergeInArrivalOrderPastBlockedInstances)
{
    // Three instances on three CPUs queue interleaved arrivals: A
    // (CPU 0) is at its buffer quota, B (CPU 1) and C (CPU 2) wait on
    // ATB conflicts. Each release retries the waiting arrivals in
    // queueing order; an instance drops out at its first failure, so
    // its later arrivals never pass it, while other instances' do.
    Simulation s;
    ActiveConfig cfg;
    cfg.cpus = 3;
    ProbeSwitch sw(s, "probe", 0, net::SwitchParams{8}, cfg);
    constexpr std::uint32_t kSlotStride = 16 * 512; // same ATB slot
    std::array<HandlerContext *, 3> ctx{};
    std::array<std::vector<std::uint32_t>, 3> got;
    sw.registerHandler(1, "hold", [&](HandlerContext &c) -> Task {
        ctx[c.cpuIndex()] = &c;
        for (;;) {
            const StreamChunk chunk = co_await c.nextChunk();
            got[c.cpuIndex()].push_back(chunk.address);
        }
    });
    std::array<std::vector<std::uint32_t>, 3> fed;
    const auto feed = [&](unsigned cpu, std::uint32_t address) {
        fed[cpu].push_back(address);
        sw.feed(static_cast<std::uint8_t>(cpu), address);
    };
    const auto stagedPrefixes = [&] {
        for (unsigned i = 0; i < 3; ++i) {
            ASSERT_LE(got[i].size(), fed[i].size());
            for (std::size_t j = 0; j < got[i].size(); ++j)
                EXPECT_EQ(got[i][j], fed[i][j]) << "cpu " << i;
        }
    };

    // A fills its quota (16 buffers / 3 live instances = 5); B and C
    // each map ATB slot 0.
    for (std::uint32_t j = 0; j < 5; ++j)
        feed(0, j * 512);
    feed(1, 0);
    feed(2, 0);
    s.run();
    ASSERT_EQ(sw.bufferQuota(), 5u);
    EXPECT_EQ(sw.chunksStaged(), 7u);
    EXPECT_EQ(sw.pendingDepth(), 0u);

    // Three interleaved rounds: A fails its quota, B and C conflict
    // in slot 0, and every later arrival queues behind its own head.
    for (std::uint32_t r = 0; r < 3; ++r) {
        feed(0, (5 + r) * 512);
        feed(1, kSlotStride + r * 512);
        feed(2, kSlotStride + r * 512);
    }
    s.run();
    EXPECT_EQ(sw.pendingDepth(), 9u);
    EXPECT_EQ(sw.dispatchStalls(), 9u);
    EXPECT_EQ(sw.atb(1).conflicts(), 1u);
    EXPECT_EQ(sw.atb(2).conflicts(), 1u);
    stagedPrefixes();

    // Free C's slot: C's three arrivals stage past A's and B's heads,
    // which are each tried exactly once (one more conflict for B).
    ctx[2]->deallocateOne(0);
    EXPECT_EQ(sw.pendingDepth(), 6u);
    EXPECT_EQ(sw.chunksStaged(), 10u);
    EXPECT_EQ(sw.atb(1).conflicts(), 2u);
    EXPECT_EQ(sw.atb(2).conflicts(), 1u);
    s.run();
    EXPECT_EQ(got[2].size(), 4u);
    EXPECT_EQ(got[0].size(), 5u);
    EXPECT_EQ(got[1].size(), 1u);
    stagedPrefixes();

    // C's queue is empty; it queues again behind a fresh conflict.
    feed(2, 2 * kSlotStride);
    feed(2, 2 * kSlotStride + 512);
    s.run();
    EXPECT_EQ(sw.pendingDepth(), 8u);

    // Free B's slot: B drains; C's head is tried once and still
    // conflicts (slot 0 now holds kSlotStride).
    ctx[1]->deallocateOne(0);
    EXPECT_EQ(sw.pendingDepth(), 5u);
    EXPECT_EQ(sw.atb(2).conflicts(), 3u);

    // Free one of A's buffers: exactly one A arrival fits the quota.
    ctx[0]->deallocateOne(0);
    EXPECT_EQ(sw.pendingDepth(), 4u);

    // Free C's first mapping: its head stages, the next conflicts.
    ctx[2]->deallocateOne(kSlotStride);
    EXPECT_EQ(sw.pendingDepth(), 3u);
    s.run();
    EXPECT_EQ(got[0].size(), 6u);
    EXPECT_EQ(got[1].size(), 4u);
    EXPECT_EQ(got[2].size(), 5u);
    stagedPrefixes();
    EXPECT_EQ(sw.chunksStaged(),
              got[0].size() + got[1].size() + got[2].size());
}

TEST(ActiveFairness, DeallocateOneReleasesExactly)
{
    Fixture f;
    bool checked = false;
    f.sw->registerHandler(1, "exact", [&](HandlerContext &ctx) -> Task {
        StreamChunk a = co_await ctx.nextChunk();
        StreamChunk b = co_await ctx.nextChunk();
        const unsigned free_before = ctx.owner().buffers().freeCount();
        ctx.deallocateOne(a.address);
        EXPECT_EQ(ctx.owner().buffers().freeCount(), free_before + 1);
        // b's mapping survives an exact release of a.
        EXPECT_TRUE(ctx.owner().atb(0).translate(b.address).has_value());
        EXPECT_FALSE(ctx.owner().atb(0).translate(a.address).has_value());
        ctx.deallocateOne(b.address);
        checked = true;
    });
    f.s.spawn([](host::Host &h, net::NodeId sw_id) -> Task {
        co_await h.send(sw_id, 64, net::ActiveHeader{1, 0, 0});
        co_await h.send(sw_id, 64, net::ActiveHeader{1, 512, 0});
    }(*f.h, f.sw->id()));
    f.s.run();
    EXPECT_TRUE(checked);
    EXPECT_EQ(f.sw->buffers().freeCount(), 16u);
}

TEST(ActiveFairness, BufferAccountingBalancedAfterRun)
{
    // Property: after any complete run, allocations == releases and
    // the free list is whole again.
    Fixture f;
    f.sw->registerHandler(1, "drain", [&](HandlerContext &ctx) -> Task {
        std::uint64_t got = 0;
        while (got < 8 * 512) {
            StreamChunk c = co_await ctx.nextChunk();
            got += c.bytes;
            ctx.deallocateThrough(c.address + c.bytes);
        }
    });
    f.s.spawn([](host::Host &h, net::NodeId st, net::NodeId sw_id)
                  -> Task {
        co_await h.postReadTo(st, 0, 8 * 512, sw_id,
                              net::ActiveHeader{1, 0, 0});
    }(*f.h, f.storage->id(), f.sw->id()));
    f.s.run();
    EXPECT_EQ(f.sw->buffers().allocations(), f.sw->buffers().releases());
    EXPECT_EQ(f.sw->buffers().freeCount(), 16u);
    EXPECT_EQ(f.sw->buffers().inUse(), 0u);
}

} // namespace
