/**
 * @file
 * Integration tests for the active switch: dispatch, handler
 * invocation, streaming, valid-bit stalls, buffer management, send
 * unit, and switch-initiated I/O.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
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

struct ActiveFixture {
    Simulation s;
    net::Fabric fabric{s};
    ActiveSwitch *sw;
    host::Host *h;
    net::Adapter *tca;
    io::StorageNode *storage;

    explicit ActiveFixture(ActiveConfig cfg = {})
    {
        sw = &fabric.addSwitch<ActiveSwitch>(net::SwitchParams{8}, cfg);
        h = new host::Host(s, "host0", fabric);
        tca = &fabric.addAdapter("tca0");
        storage = new io::StorageNode(s, *tca);
        fabric.connect(*sw, 0, h->hca());
        fabric.connect(*sw, 1, *tca);
        fabric.computeRoutes();
        h->start();
        storage->start();
    }

    ~ActiveFixture()
    {
        delete storage;
        delete h;
    }
};

TEST(ActiveSwitch, InvokesHandlerOnActiveMessage)
{
    ActiveFixture f;
    int invocations = 0;
    std::uint32_t seen_addr = 0;
    f.sw->registerHandler(1, "probe", [&](HandlerContext &ctx) -> Task {
        StreamChunk c = co_await ctx.nextChunk();
        ++invocations;
        seen_addr = c.address;
    });
    f.s.spawn([](host::Host &h, net::NodeId sw) -> Task {
        co_await h.send(sw, 64, net::ActiveHeader{1, 0x4000, 0});
    }(*f.h, f.sw->id()));
    f.s.run();
    EXPECT_EQ(invocations, 1);
    EXPECT_EQ(seen_addr, 0x4000u);
    EXPECT_EQ(f.sw->handlersInvoked(), 1u);
    EXPECT_EQ(f.sw->chunksStaged(), 1u);
}

TEST(ActiveSwitch, UnregisteredHandlerDropsPacket)
{
    ActiveFixture f;
    f.s.spawn([](host::Host &h, net::NodeId sw) -> Task {
        co_await h.send(sw, 64, net::ActiveHeader{9, 0, 0});
    }(*f.h, f.sw->id()));
    f.s.run();
    EXPECT_EQ(f.sw->handlersInvoked(), 0u);
}

TEST(ActiveSwitch, RegisterHandlerRejectsIdBeyondSixBits)
{
    ActiveFixture f;
    const HandlerFn noop = [](HandlerContext &) -> Task { co_return; };
    EXPECT_NO_THROW(f.sw->registerHandler(net::maxHandlerId, "top", noop));
    EXPECT_THROW(f.sw->registerHandler(net::maxHandlerId + 1, "x", noop),
                 std::invalid_argument);
    EXPECT_THROW(f.sw->registerHandler(255, "x", noop),
                 std::invalid_argument);
    EXPECT_EQ(f.sw->handlerProfiles().size(), 1u);
}

TEST(ActiveSwitch, ConstructorRejectsCpuCountOutsideOneToFour)
{
    Simulation s;
    for (unsigned cpus : {0u, 5u}) {
        ActiveConfig cfg;
        cfg.cpus = cpus;
        EXPECT_THROW(ActiveSwitch(s, "bad", 0, net::SwitchParams{8}, cfg),
                     std::invalid_argument)
            << cpus << " cpus";
    }
    ActiveConfig four;
    four.cpus = 4;
    EXPECT_EQ(ActiveSwitch(s, "ok", 0, net::SwitchParams{8}, four)
                  .cpuCount(),
              4u);
}

TEST(ActiveSwitch, HeaderIdBeyondSixBitsIsDroppedAndCounted)
{
    // The header field is 8 bits wide but the jump table has 64
    // entries: ids 65 and 200 must not alias handlers 1 and 8.
    ActiveFixture f;
    int invoked = 0;
    const HandlerFn count = [&](HandlerContext &ctx) -> Task {
        (void)co_await ctx.nextChunk();
        ++invoked;
    };
    f.sw->registerHandler(1, "one", count);
    f.sw->registerHandler(8, "eight", count);
    f.s.spawn([](host::Host &h, net::NodeId sw) -> Task {
        co_await h.send(sw, 64, net::ActiveHeader{65, 0, 0});
        co_await h.send(sw, 64, net::ActiveHeader{200, 0x1000, 0});
        co_await h.send(sw, 64, net::ActiveHeader{200, 0x2000, 0});
    }(*f.h, f.sw->id()));
    testing::internal::CaptureStderr();
    f.s.run();
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(invoked, 0);
    EXPECT_EQ(f.sw->handlersInvoked(), 0u);
    EXPECT_EQ(f.sw->chunksStaged(), 0u);
    EXPECT_EQ(f.sw->droppedPackets(), 3u);
    EXPECT_EQ(f.sw->buffers().allocations(), 0u);
    // Warned once per id.
    const auto count_of = [&](const std::string &needle) {
        std::size_t n = 0;
        for (auto pos = log.find(needle); pos != std::string::npos;
             pos = log.find(needle, pos + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(count_of("id 65;"), 1u);
    EXPECT_EQ(count_of("id 200;"), 1u);
}

TEST(ActiveSwitch, MultiPacketMessageMapsRisingAddresses)
{
    ActiveFixture f;
    std::vector<std::uint32_t> addrs;
    f.sw->registerHandler(2, "stream", [&](HandlerContext &ctx) -> Task {
        for (;;) {
            StreamChunk c = co_await ctx.nextChunk();
            addrs.push_back(c.address);
            ctx.deallocateThrough(c.address + c.bytes);
            if (c.lastOfMessage)
                break;
        }
    });
    f.s.spawn([](host::Host &h, net::NodeId sw) -> Task {
        co_await h.send(sw, 1536, net::ActiveHeader{2, 0x8000, 0});
    }(*f.h, f.sw->id()));
    f.s.run();
    ASSERT_EQ(addrs.size(), 3u);
    EXPECT_EQ(addrs[0], 0x8000u);
    EXPECT_EQ(addrs[1], 0x8000u + 512);
    EXPECT_EQ(addrs[2], 0x8000u + 1024);
    // All buffers returned to the pool.
    EXPECT_EQ(f.sw->buffers().freeCount(), 16u);
}

TEST(ActiveSwitch, ValidBitStallUntilDataArrives)
{
    ActiveFixture f;
    Tick chunk_seen = 0, first_line = 0, last_line = 0;
    f.sw->registerHandler(3, "valid", [&](HandlerContext &ctx) -> Task {
        StreamChunk c = co_await ctx.nextChunk();
        chunk_seen = ctx.sim().now();
        co_await ctx.awaitValid(c, 0, 32);
        first_line = ctx.sim().now();
        co_await ctx.awaitValid(c, 0, c.bytes);
        last_line = ctx.sim().now();
    });
    f.s.spawn([](host::Host &h, net::NodeId sw) -> Task {
        co_await h.send(sw, 512, net::ActiveHeader{3, 0, 0});
    }(*f.h, f.sw->id()));
    f.s.run();
    // Cut-through: the handler sees the chunk while the payload is
    // still streaming in. Routing (100 ns) + dispatch (40 ns) have
    // already elapsed by then, so the first 32 B line (valid 32 ns
    // into the payload) is ready, but the tail is not: the last
    // line lands 528 - 156 = 372 ns after dispatch.
    EXPECT_GE(first_line, chunk_seen);
    EXPECT_GT(last_line, first_line);
    EXPECT_EQ(last_line - chunk_seen, ns(372));
}

TEST(ActiveSwitch, HandlerComputeChargesSwitchCpu)
{
    ActiveFixture f;
    f.sw->registerHandler(4, "compute", [&](HandlerContext &ctx) -> Task {
        co_await ctx.nextChunk();
        co_await ctx.compute(1000); // 1000 cycles at 500 MHz = 2 us
    });
    f.s.spawn([](host::Host &h, net::NodeId sw) -> Task {
        co_await h.send(sw, 64, net::ActiveHeader{4, 0, 0});
    }(*f.h, f.sw->id()));
    f.s.run();
    EXPECT_EQ(f.sw->cpu(0).busyTicks(), us(2));
}

TEST(ActiveSwitch, HandlerSendsResultToHost)
{
    ActiveFixture f;
    f.sw->registerHandler(5, "echo", [&](HandlerContext &ctx) -> Task {
        StreamChunk c = co_await ctx.nextChunk();
        co_await ctx.awaitValid(c, 0, c.bytes);
        ctx.deallocateThrough(c.address + c.bytes);
        co_await ctx.send(c.src, 128, std::nullopt, nullptr,
                          host::tagApp);
    });
    bool got = false;
    f.s.spawn([](host::Host &h, net::NodeId sw, bool &flag) -> Task {
        co_await h.send(sw, 64, net::ActiveHeader{5, 0, 0});
        net::Message m = co_await h.recv();
        flag = (m.bytes == 128 && m.src == sw);
    }(*f.h, f.sw->id(), got));
    f.s.run();
    EXPECT_TRUE(got);
}

TEST(ActiveSwitch, DiskDataStreamsIntoHandler)
{
    ActiveFixture f;
    std::uint64_t received = 0;
    int chunks = 0;
    f.sw->registerHandler(6, "sink", [&](HandlerContext &ctx) -> Task {
        const std::uint64_t want = 8192;
        std::uint32_t addr = 0;
        while (received < want) {
            StreamChunk c = co_await ctx.nextChunk();
            co_await ctx.awaitValid(c, 0, c.bytes);
            received += c.bytes;
            ++chunks;
            addr = c.address + c.bytes;
            ctx.deallocateThrough(addr);
        }
    });
    f.s.spawn([](host::Host &h, net::NodeId storage,
                 net::NodeId sw) -> Task {
        co_await h.postReadTo(storage, 0, 8192, sw,
                              net::ActiveHeader{6, 0, 0});
    }(*f.h, f.storage->id(), f.sw->id()));
    f.s.run();
    EXPECT_EQ(received, 8192u);
    EXPECT_EQ(chunks, 16);
    EXPECT_EQ(f.sw->buffers().freeCount(), 16u);
    // Host never saw the data.
    EXPECT_EQ(f.h->hca().bytesReceived(), 0u);
}

TEST(ActiveSwitch, PerChunkAddressesAdvanceWithDiskOffset)
{
    // The TCA advances the mapped address with the file offset so the
    // handler sees a flat file image.
    ActiveFixture f;
    std::vector<std::uint32_t> addrs;
    f.sw->registerHandler(7, "map", [&](HandlerContext &ctx) -> Task {
        for (int i = 0; i < 4; ++i) {
            StreamChunk c = co_await ctx.nextChunk();
            addrs.push_back(c.address);
            ctx.deallocateThrough(c.address + c.bytes);
        }
    });
    f.s.spawn([](host::Host &h, net::NodeId storage,
                 net::NodeId sw) -> Task {
        co_await h.postReadTo(storage, 0, 2048, sw,
                              net::ActiveHeader{7, 0x1000, 0});
    }(*f.h, f.storage->id(), f.sw->id()));
    f.s.run();
    ASSERT_EQ(addrs.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(addrs[i], 0x1000u + 512 * i);
}

TEST(ActiveSwitch, BufferExhaustionStallsDispatchThenRecovers)
{
    ActiveFixture f;
    // A handler that consumes slowly: buffers pile up, dispatch
    // stalls, then everything drains once buffers free.
    std::uint64_t received = 0;
    f.sw->registerHandler(8, "slow", [&](HandlerContext &ctx) -> Task {
        const std::uint64_t want = 32 * 512;
        while (received < want) {
            StreamChunk c = co_await ctx.nextChunk();
            co_await ctx.awaitValid(c, 0, c.bytes);
            co_await ctx.compute(5000); // 10 us per 512 B chunk
            received += c.bytes;
            ctx.deallocateThrough(c.address + c.bytes);
        }
    });
    f.s.spawn([](host::Host &h, net::NodeId storage,
                 net::NodeId sw) -> Task {
        co_await h.postReadTo(storage, 0, 32 * 512, sw,
                              net::ActiveHeader{8, 0, 0});
    }(*f.h, f.storage->id(), f.sw->id()));
    f.s.run();
    EXPECT_EQ(received, 32u * 512);
    EXPECT_GT(f.sw->dispatchStalls(), 0u);
    EXPECT_EQ(f.sw->buffers().freeCount(), 16u);
}

TEST(ActiveSwitch, SwitchInitiatedReadBypassesHost)
{
    // Tar pattern: the handler itself posts the disk read and
    // redirects the data to a third node.
    Simulation s;
    net::Fabric fabric(s);
    auto &sw = fabric.addSwitch<ActiveSwitch>(net::SwitchParams{8},
                                              ActiveConfig{});
    host::Host h(s, "host0", fabric);
    host::Host remote(s, "remote", fabric);
    auto &tca = fabric.addAdapter("tca0");
    io::StorageNode storage(s, tca);
    fabric.connect(sw, 0, h.hca());
    fabric.connect(sw, 1, tca);
    fabric.connect(sw, 2, remote.hca());
    fabric.computeRoutes();
    h.start();
    remote.start();
    storage.start();

    sw.registerHandler(9, "tar", [&](HandlerContext &ctx) -> Task {
        StreamChunk arg = co_await ctx.nextChunk();
        ctx.deallocateThrough(arg.address + 512);
        // Read 4 KB from disk straight to the remote node.
        co_await ctx.postRead(storage.id(), 0, 4096, remote.id(),
                              std::nullopt);
    });

    s.spawn([](host::Host &host, net::NodeId sw_id) -> Task {
        co_await host.send(sw_id, 64, net::ActiveHeader{9, 0, 0});
    }(h, sw.id()));
    s.run();
    EXPECT_EQ(remote.hca().bytesReceived(), 4096u);
    EXPECT_EQ(h.hca().bytesReceived(), 0u);
}

TEST(ActiveSwitch, MultiCpuInstancesRunConcurrently)
{
    ActiveConfig cfg;
    cfg.cpus = 4;
    ActiveFixture f(cfg);
    int done = 0;
    f.sw->registerHandler(10, "par", [&](HandlerContext &ctx) -> Task {
        co_await ctx.nextChunk();
        co_await ctx.compute(50000); // 100 us of switch CPU work
        ++done;
    });
    f.s.spawn([](host::Host &h, net::NodeId sw) -> Task {
        for (std::uint8_t k = 0; k < 4; ++k)
            co_await h.send(sw, 64, net::ActiveHeader{10, 0, k});
    }(*f.h, f.sw->id()));
    Tick end = f.s.run();
    EXPECT_EQ(done, 4);
    EXPECT_EQ(f.sw->handlersInvoked(), 4u);
    // Ran in parallel: total far below 4 x 100 us.
    EXPECT_LT(end, us(250));
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(f.sw->cpu(i).busyTicks(), us(100));
}

TEST(ActiveSwitch, NonActiveTrafficUnaffectedByHandlers)
{
    // Active processing on the switch must not perturb plain
    // forwarding between two other ports.
    Simulation s;
    net::Fabric fabric(s);
    auto &sw = fabric.addSwitch<ActiveSwitch>(net::SwitchParams{8},
                                              ActiveConfig{});
    host::Host a(s, "a", fabric), b(s, "b", fabric);
    fabric.connect(sw, 0, a.hca());
    fabric.connect(sw, 1, b.hca());
    fabric.computeRoutes();
    a.start();
    b.start();

    sw.registerHandler(11, "busy", [&](HandlerContext &ctx) -> Task {
        co_await ctx.nextChunk();
        co_await ctx.compute(1000000);
    });

    Tick delivered = 0;
    s.spawn([](host::Host &h, net::NodeId sw_id, net::NodeId dst)
                -> Task {
        co_await h.send(sw_id, 64, net::ActiveHeader{11, 0, 0});
        co_await h.send(dst, 512);
    }(a, sw.id(), b.id()));
    s.spawn([](host::Host &h, Tick &t) -> Task {
        co_await h.recv();
        t = h.cpu().memory().dram().bytesTransferred(); // placate
        t = 0;
    }(b, delivered));
    Tick end = s.run();
    // The end time is dominated by the handler's 2 ms of compute,
    // but b received its message long before.
    EXPECT_EQ(b.hca().bytesReceived(), 512u);
    EXPECT_GE(end, ms(2));
}

} // namespace
