/**
 * @file
 * Tests for the composed MemorySystem hierarchy.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "mem/MemorySystem.hh"

namespace {

using namespace san::mem;
using namespace san::sim;

TEST(MemorySystem, PresetGeometriesMatchPaper)
{
    auto host = hostMemoryParams();
    EXPECT_EQ(host.l1d.size, 32u * 1024);
    EXPECT_EQ(host.l1d.assoc, 2u);
    ASSERT_TRUE(host.l2.has_value());
    EXPECT_EQ(host.l2->size, 512u * 1024);
    EXPECT_EQ(host.l2->lineSize, 128u);

    auto scaled = scaledHostMemoryParams();
    EXPECT_EQ(scaled.l1d.size, 8u * 1024);
    EXPECT_EQ(scaled.l2->size, 64u * 1024);

    auto sw = switchMemoryParams();
    EXPECT_EQ(sw.l1i.size, 4u * 1024);
    EXPECT_EQ(sw.l1i.lineSize, 64u);
    EXPECT_EQ(sw.l1d.size, 1u * 1024);
    EXPECT_EQ(sw.l1d.lineSize, 32u);
    EXPECT_FALSE(sw.l2.has_value());
    EXPECT_EQ(sw.overlapDepth, 1u);
}

TEST(MemorySystem, RejectsPageSizeNotPowerOfTwo)
{
    auto params = hostMemoryParams();
    params.pageSize = 6000;
    EXPECT_THROW(MemorySystem{params}, std::invalid_argument);
}

TEST(MemorySystem, HitAfterFillIsFree)
{
    MemorySystem ms(hostMemoryParams());
    Tick first = ms.dataAccess(0x10000, 8, AccessKind::Load, 0);
    EXPECT_GT(first, 0u);
    Tick second = ms.dataAccess(0x10000, 8, AccessKind::Load, first);
    EXPECT_EQ(second, 0u);
}

TEST(MemorySystem, L2HitCheaperThanDram)
{
    auto params = hostMemoryParams();
    MemorySystem ms(params);
    // Fill a line, then evict it from tiny L1 by touching conflicting
    // lines, so the next access hits in L2.
    const Addr target = 0;
    ms.dataAccess(target, 8, AccessKind::Load, 0);
    // L1D is 32 KB 2-way with 128 B lines -> 128 sets; lines 0,
    // 16K, 32K... share set 0. Touch 2 more to evict `target`.
    ms.dataAccess(16 * 1024, 8, AccessKind::Load, 0);
    ms.dataAccess(32 * 1024, 8, AccessKind::Load, 0);
    EXPECT_FALSE(ms.l1d().contains(target));
    EXPECT_TRUE(ms.l2()->contains(target));
    Tick l2hit = ms.dataAccess(target, 8, AccessKind::Load, us(1));
    EXPECT_EQ(l2hit, params.l2HitLatency);
}

TEST(MemorySystem, StoresOverlapLoadsDoNot)
{
    MemorySystem loads(hostMemoryParams());
    MemorySystem stores(hostMemoryParams());
    // Touch pages first so TLB walks don't skew the comparison.
    loads.dataAccess(0, 1, AccessKind::Load, 0);
    stores.dataAccess(0, 1, AccessKind::Load, 0);

    Tick lstall = loads.dataAccess(8192, 4096, AccessKind::Load, us(1));
    Tick sstall = stores.dataAccess(8192, 4096, AccessKind::Store, us(1));
    EXPECT_GT(lstall, sstall);
    // Four-deep overlap: stores should be roughly a quarter.
    EXPECT_NEAR(static_cast<double>(sstall) / lstall, 0.25, 0.15);
}

TEST(MemorySystem, TlbMissChargesWalk)
{
    auto params = hostMemoryParams();
    MemorySystem ms(params);
    // Warm the data line and the PTE line.
    ms.dataAccess(0x5000, 1, AccessKind::Load, 0);
    EXPECT_EQ(ms.dtlb().misses(), 1u);
    // Warm re-access: everything hits, zero stall.
    EXPECT_EQ(ms.dataAccess(0x5000, 1, AccessKind::Load, us(1)), 0u);
    // Drop only the translation: the same access now pays exactly the
    // walk overhead (the PTE itself is L1-resident).
    ms.dtlb().flush();
    Tick walk_only = ms.dataAccess(0x5000, 1, AccessKind::Load, us(2));
    EXPECT_EQ(walk_only, params.tlbWalkOverhead);
    EXPECT_EQ(ms.dtlb().misses(), 2u);
}

TEST(MemorySystem, SwitchHierarchyHasNoL2)
{
    MemorySystem ms(switchMemoryParams());
    EXPECT_EQ(ms.l2(), nullptr);
    Tick stall = ms.dataAccess(0x100, 1, AccessKind::Load, 0);
    // Must include a full DRAM round trip (>= 122ns page miss).
    EXPECT_GE(stall, ns(122));
}

TEST(MemorySystem, InstFetchFillsICache)
{
    MemorySystem ms(hostMemoryParams());
    Tick first = ms.instFetch(0x400000, 256, 0);
    EXPECT_GT(first, 0u);
    Tick second = ms.instFetch(0x400000, 256, first);
    EXPECT_EQ(second, 0u);
    EXPECT_GT(ms.l1i().hits(), 0u);
}

TEST(MemorySystem, StreamingLargeBufferCostScalesWithLines)
{
    MemorySystem ms(hostMemoryParams());
    // Stream 1 MB: every 128 B line misses (working set >> L2).
    Tick stall = ms.dataAccess(0, MiB, AccessKind::Load, 0);
    // At least DRAM bandwidth cost: 1 MB / 1.6 GB/s = 655 us.
    EXPECT_GE(stall, us(600));
    // Data lines plus the page-table entry lines pulled in by walks
    // (256 pages x 8 B PTEs = 16 extra lines).
    EXPECT_GE(ms.l1d().misses(), MiB / 128);
    EXPECT_LE(ms.l1d().misses(), MiB / 128 + 16);
}

TEST(MemorySystem, StallTicksAccumulate)
{
    MemorySystem ms(hostMemoryParams());
    Tick a = ms.dataAccess(0, 4096, AccessKind::Load, 0);
    Tick b = ms.instFetch(0x800000, 1024, a);
    EXPECT_EQ(ms.stallTicks(), a + b);
}

} // namespace
