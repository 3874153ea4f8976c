/**
 * @file
 * Unit and property tests for the cache, TLB and RDRAM models, and
 * for the flat LRU and seen sets behind the 3C miss classifier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/Cache.hh"
#include "mem/LruSet.hh"
#include "mem/MemorySystem.hh"
#include "mem/Rdram.hh"
#include "mem/Tlb.hh"
#include "sim/Random.hh"

namespace {

using namespace san::mem;
using namespace san::sim;

CacheParams
tiny(unsigned size, unsigned assoc, unsigned line, bool classify = true)
{
    return CacheParams{"tiny", size, assoc, line, classify};
}

TEST(Cache, FirstTouchIsColdMissThenHit)
{
    Cache c(tiny(1024, 2, 64));
    auto first = c.access(0x1000, false);
    EXPECT_FALSE(first.hit);
    EXPECT_EQ(first.missClass, MissClass::Cold);
    auto second = c.access(0x1000 + 63, false); // same line
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictsLeastRecentlyUsedWay)
{
    // 2-way, 64 B lines, 2 sets (256 B total).
    Cache c(tiny(256, 2, 64));
    // Three lines mapping to set 0: line addresses 0, 2, 4.
    c.access(0 * 64, false);
    c.access(2 * 64, false);
    c.access(0 * 64, false);   // refresh line 0; line 2 is now LRU
    c.access(4 * 64, false);   // evicts line 2
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_FALSE(c.contains(2 * 64));
    EXPECT_TRUE(c.contains(4 * 64));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c(tiny(128, 1, 64)); // direct-mapped, 2 sets
    c.access(0, true);          // dirty line 0 in set 0
    auto res = c.access(2 * 64, false); // same set, evicts dirty line
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, ConflictVsCapacityClassification)
{
    // Direct-mapped 2-set cache: lines 0 and 2 conflict while the
    // total working set (2 lines) fits in capacity.
    Cache c(tiny(128, 1, 64));
    c.access(0 * 64, false);  // cold
    c.access(2 * 64, false);  // cold, evicts 0
    c.access(0 * 64, false);  // miss again: conflict (fits FA shadow)
    EXPECT_EQ(c.coldMisses(), 2u);
    EXPECT_EQ(c.conflictMisses(), 1u);
    EXPECT_EQ(c.capacityMisses(), 0u);
}

TEST(Cache, CapacityMissWhenWorkingSetExceedsSize)
{
    // Fully-associative 2-line cache; stream 3 lines cyclically.
    Cache c(tiny(128, 2, 64));
    for (int round = 0; round < 2; ++round)
        for (Addr line = 0; line < 3; ++line)
            c.access(line * 64, false);
    EXPECT_EQ(c.coldMisses(), 3u);
    EXPECT_GT(c.capacityMisses(), 0u);
    EXPECT_EQ(c.conflictMisses(), 0u);
}

TEST(Cache, InvalidateAllEmptiesCache)
{
    Cache c(tiny(1024, 2, 64));
    c.access(0x40, false);
    EXPECT_TRUE(c.contains(0x40));
    c.invalidateAll();
    EXPECT_FALSE(c.contains(0x40));
}

TEST(Cache, InvalidateAllKeepsClassifierState)
{
    // The classifier outlives a model-level reset: a line touched
    // before invalidateAll() is not cold again, and the shadow still
    // holds it, so its refill is a conflict miss.
    Cache c(tiny(1024, 2, 64));
    c.access(0x40, false);
    c.invalidateAll();
    const auto again = c.access(0x40, false);
    EXPECT_FALSE(again.hit);
    EXPECT_EQ(again.missClass, MissClass::Conflict);
    EXPECT_EQ(c.coldMisses(), 1u);
    EXPECT_EQ(c.conflictMisses(), 1u);
}

TEST(Cache, RejectsZeroLineSize)
{
    EXPECT_THROW(Cache(tiny(1024, 2, 0)), std::invalid_argument);
}

TEST(Cache, RejectsZeroAssociativity)
{
    EXPECT_THROW(Cache(tiny(1024, 0, 64)), std::invalid_argument);
}

TEST(Cache, RejectsSizeNotMultipleOfSetBytes)
{
    // 1000 B holds 15 lines of 64 B but only 7 sets of 2 ways: the
    // shadow would be larger than the cache it classifies for.
    EXPECT_THROW(Cache(tiny(1000, 2, 64)), std::invalid_argument);
    // Smaller than one set.
    EXPECT_THROW(Cache(tiny(64, 2, 64)), std::invalid_argument);
    EXPECT_THROW(Cache(tiny(0, 2, 64)), std::invalid_argument);
}

TEST(Cache, SequentialStreamMissesOncePerLine)
{
    Cache c(tiny(32 * 1024, 2, 128, false));
    const std::uint64_t bytes = 64 * 1024;
    for (Addr a = 0; a < bytes; a += 8)
        c.access(a, false);
    EXPECT_EQ(c.misses(), bytes / 128);
    EXPECT_EQ(c.hits(), bytes / 8 - bytes / 128);
}

/** Property: hits + misses == accesses, misses >= distinct lines. */
class CacheProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned,
                                                 unsigned>>
{};

TEST_P(CacheProperty, AccountingInvariants)
{
    auto [size, assoc, line] = GetParam();
    Cache c(tiny(size, assoc, line));
    Random rng(size * 31 + assoc * 7 + line);
    const int n = 5000;
    std::uint64_t accesses = 0;
    for (int i = 0; i < n; ++i) {
        c.access(rng.below(64 * 1024), rng.chance(0.3));
        ++accesses;
    }
    EXPECT_EQ(c.hits() + c.misses(), accesses);
    EXPECT_EQ(c.coldMisses() + c.capacityMisses() + c.conflictMisses(),
              c.misses());
    EXPECT_LE(c.writebacks(), c.misses());
    EXPECT_GE(c.missRate(), 0.0);
    EXPECT_LE(c.missRate(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Values(std::tuple{1024u, 1u, 32u},
                      std::tuple{1024u, 2u, 32u},
                      std::tuple{4096u, 2u, 64u},
                      std::tuple{8192u, 4u, 128u},
                      std::tuple{512u, 8u, 64u}));

TEST(Tlb, HitAfterFillAndLruEviction)
{
    Tlb tlb(2, 4096);
    EXPECT_FALSE(tlb.access(0x0000));      // page 0 miss
    EXPECT_TRUE(tlb.access(0x0800));       // page 0 hit
    EXPECT_FALSE(tlb.access(0x1000));      // page 1 miss
    EXPECT_FALSE(tlb.access(0x2000));      // page 2 miss, evicts page 0
    EXPECT_FALSE(tlb.access(0x0000));      // page 0 again: miss
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 4u);
}

TEST(Tlb, FlushForgetsEverything)
{
    Tlb tlb(64, 4096);
    tlb.access(0);
    tlb.flush();
    EXPECT_FALSE(tlb.access(0));
}

TEST(Tlb, RejectsZeroEntries)
{
    EXPECT_THROW(Tlb(0, 4096), std::invalid_argument);
}

TEST(Tlb, RejectsZeroPageSize)
{
    EXPECT_THROW(Tlb(64, 0), std::invalid_argument);
}

// --- Differential test of the 3C classifier --------------------------

/**
 * The cache model with the node-based classifier it had before the
 * flat one: an unordered_set of lines ever seen and a std::list +
 * unordered_map fully-associative LRU shadow of equal capacity,
 * touched on every access. Kept as the oracle for exact counts.
 */
class OracleCache
{
  public:
    explicit OracleCache(const CacheParams &p)
        : p_(p), numLines_(p.size / p.lineSize),
          numSets_(numLines_ / p.assoc),
          sets_(numSets_, std::vector<Line>(p.assoc))
    {}

    void
    access(Addr addr, bool write)
    {
        const Addr line = addr / p_.lineSize;
        auto &set = sets_[line % numSets_];
        ++clock_;
        for (auto &way : set) {
            if (way.valid && way.tag == line) {
                way.lastUse = clock_;
                way.dirty |= write;
                ++hits;
                shadowTouch(line);
                return;
            }
        }
        ++misses;
        if (!seen_.contains(line)) {
            seen_.insert(line);
            ++cold;
        } else if (shadowMap_.contains(line)) {
            ++conflict;
        } else {
            ++capacity;
        }
        shadowTouch(line);

        Line *victim = &set[0];
        for (auto &way : set) {
            if (!way.valid) {
                victim = &way;
                break;
            }
            if (way.lastUse < victim->lastUse)
                victim = &way;
        }
        writebacks += victim->valid && victim->dirty;
        *victim = Line{line, true, write, clock_};
    }

    std::uint64_t hits = 0, misses = 0, cold = 0, capacity = 0,
                  conflict = 0, writebacks = 0;

  private:
    struct Line {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    void
    shadowTouch(Addr line)
    {
        auto it = shadowMap_.find(line);
        if (it != shadowMap_.end()) {
            shadowLru_.erase(it->second);
            shadowMap_.erase(it);
        }
        shadowLru_.push_front(line);
        shadowMap_[line] = shadowLru_.begin();
        if (shadowLru_.size() > numLines_) {
            shadowMap_.erase(shadowLru_.back());
            shadowLru_.pop_back();
        }
    }

    CacheParams p_;
    std::uint64_t numLines_, numSets_;
    std::vector<std::vector<Line>> sets_;
    std::uint64_t clock_ = 0;
    std::unordered_set<Addr> seen_;
    std::list<Addr> shadowLru_;
    std::unordered_map<Addr, std::list<Addr>::iterator> shadowMap_;
};

enum class Stream { Random, Strided, HotCold };

struct Access {
    Addr addr;
    bool write;
};

/**
 * A seeded access stream sized to @p p: its footprint is a few times
 * the cache, so it produces cold, capacity and conflict misses.
 */
std::vector<Access>
makeStream(Stream kind, const CacheParams &p, std::uint64_t seed)
{
    Random rng(seed);
    const std::uint64_t footprint = 4 * p.size;
    const std::uint64_t setStride = p.size / p.assoc;
    std::vector<Access> out;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
        Addr a = 0;
        switch (kind) {
          case Stream::Random:
            a = rng.below(footprint);
            break;
          case Stream::Strided:
            // Phases: a sweep with a half-line stride over twice the
            // capacity, then 2 x assoc lines that share one set.
            a = (i / 4096) % 2 == 0
                    ? (std::uint64_t(i) * p.lineSize / 2) % (2 * p.size)
                    : (std::uint64_t(i) % (2 * p.assoc)) * setStride;
            a += rng.below(p.lineSize);
            break;
          case Stream::HotCold:
            a = rng.chance(0.8) ? rng.below(p.size / 2)
                                : p.size + rng.below(8 * p.size);
            break;
        }
        out.push_back(Access{a, rng.chance(0.3)});
    }
    return out;
}

struct Geometry {
    const char *name;
    CacheParams params;
};

std::vector<Geometry>
classifierGeometries()
{
    const auto scaled = scaledHostMemoryParams();
    const auto host = hostMemoryParams();
    return {
        {"ScaledHostL1d", scaled.l1d},
        {"ScaledHostL2", *scaled.l2},
        {"HostL1d", host.l1d},
        {"HostL2", *host.l2},
        {"SwitchDcache", switchMemoryParams().l1d},
        {"FullyAssociative", CacheParams{"fa", 4096, 32, 128, true}},
        {"DirectMapped", CacheParams{"dm", 8192, 1, 64, true}},
    };
}

class ClassifierDifferential
    : public ::testing::TestWithParam<std::tuple<std::size_t, Stream>>
{};

TEST_P(ClassifierDifferential, CountsMatchNodeBasedOracle)
{
    const auto [g, kind] = GetParam();
    const Geometry geom = classifierGeometries()[g];
    ASSERT_TRUE(geom.params.classifyMisses) << geom.name;
    Cache c(geom.params);
    OracleCache ref(geom.params);
    for (const Access &a :
         makeStream(kind, geom.params, 1000 * g + std::size_t(kind))) {
        c.access(a.addr, a.write);
        ref.access(a.addr, a.write);
    }
    EXPECT_EQ(c.hits(), ref.hits);
    EXPECT_EQ(c.misses(), ref.misses);
    EXPECT_EQ(c.coldMisses(), ref.cold);
    EXPECT_EQ(c.capacityMisses(), ref.capacity);
    EXPECT_EQ(c.conflictMisses(), ref.conflict);
    EXPECT_EQ(c.writebacks(), ref.writebacks);
    // Every stream revisits lines after evicting them.
    EXPECT_GT(c.capacityMisses() + c.conflictMisses(), 0u);
    if (geom.params.size == geom.params.lineSize * geom.params.assoc) {
        EXPECT_EQ(c.conflictMisses(), 0u) << "one set cannot conflict";
    }
}

std::string
classifierCaseName(
    const ::testing::TestParamInfo<std::tuple<std::size_t, Stream>> &info)
{
    const auto [g, kind] = info.param;
    const char *const kinds[] = {"Random", "Strided", "HotCold"};
    return std::string(classifierGeometries()[g].name) +
           kinds[static_cast<int>(kind)];
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ClassifierDifferential,
    ::testing::Combine(
        ::testing::Range<std::size_t>(0, classifierGeometries().size()),
        ::testing::Values(Stream::Random, Stream::Strided,
                          Stream::HotCold)),
    classifierCaseName);

// --- LruSet and SeenSet ----------------------------------------------

TEST(LruSet, EvictsLeastRecentlyUsedAtExactCapacity)
{
    LruSet s(3);
    EXPECT_FALSE(s.touch(1));
    EXPECT_FALSE(s.touch(2));
    EXPECT_FALSE(s.touch(3));
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(s.contains(1) && s.contains(2) && s.contains(3));
    EXPECT_FALSE(s.touch(4)); // evicts 1
    EXPECT_EQ(s.size(), 3u);
    EXPECT_FALSE(s.contains(1));
    EXPECT_TRUE(s.touch(2));  // 3 is now least recent
    EXPECT_FALSE(s.touch(5)); // evicts 3
    EXPECT_FALSE(s.contains(3));
    EXPECT_TRUE(s.contains(2) && s.contains(4) && s.contains(5));
}

TEST(LruSet, RetouchingTheHeadKeepsOrder)
{
    LruSet s(3);
    s.touch(1);
    s.touch(2);
    s.touch(3);
    EXPECT_TRUE(s.touch(3));
    EXPECT_TRUE(s.touch(3));
    EXPECT_EQ(s.size(), 3u);
    s.touch(4); // 1 is still least recent
    EXPECT_FALSE(s.contains(1));
    s.touch(5); // then 2
    EXPECT_FALSE(s.contains(2));
    EXPECT_TRUE(s.contains(3));
}

TEST(LruSet, ClearEmptiesAndKeepsWorking)
{
    LruSet s(2);
    s.touch(7);
    s.touch(8);
    s.clear();
    EXPECT_EQ(s.size(), 0u);
    EXPECT_FALSE(s.contains(7));
    EXPECT_FALSE(s.contains(8));
    EXPECT_FALSE(s.touch(8));
    EXPECT_FALSE(s.touch(9));
    EXPECT_TRUE(s.touch(8));
    EXPECT_FALSE(s.touch(10)); // evicts 9
    EXPECT_FALSE(s.contains(9));
    EXPECT_TRUE(s.contains(8) && s.contains(10));
    // A set cleared before first use stays usable.
    LruSet fresh(1);
    fresh.clear();
    EXPECT_FALSE(fresh.touch(1));
    EXPECT_TRUE(fresh.touch(1));
}

TEST(LruSet, RejectsZeroCapacity)
{
    EXPECT_THROW(LruSet(0), std::invalid_argument);
}

/** Odd keys home to the last slot, even keys to the first, so the
 * two probe runs wrap into each other. */
struct TwoHomesHash {
    std::uint64_t
    operator()(std::uint64_t key) const
    {
        return key & 1 ? ~std::uint64_t{0} : 0;
    }
};

TEST(LruSet, BackwardShiftDeletionUnderForcedCollisions)
{
    // Churn a small set whose keys all collide into two wrapping
    // runs, so every eviction deletes from the middle of a run.
    // After each step the set must agree with a plain recency list.
    constexpr std::size_t cap = 5;
    BasicLruSet<TwoHomesHash> s(cap);
    std::list<std::uint64_t> ref; // most recent first
    Random rng(42);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t key = rng.below(12);
        const auto it = std::find(ref.begin(), ref.end(), key);
        const bool present = it != ref.end();
        if (present)
            ref.erase(it);
        ref.push_front(key);
        if (ref.size() > cap)
            ref.pop_back();
        ASSERT_EQ(s.touch(key), present) << "step " << i;
        ASSERT_EQ(s.size(), ref.size());
        for (std::uint64_t k = 0; k < 12; ++k)
            ASSERT_EQ(s.contains(k),
                      std::find(ref.begin(), ref.end(), k) != ref.end())
                << "step " << i << " key " << k;
    }
}

TEST(SeenSet, InsertReportsFirstTouchOnly)
{
    // Clustered and scattered keys across many 512-key chunks, with
    // chunk-boundary and extreme keys, force the chunk table to grow
    // several times.
    SeenSet s;
    std::set<std::uint64_t> ref;
    Random rng(7);
    std::vector<std::uint64_t> keys = {0, 511, 512, 513,
                                       ~std::uint64_t{0}};
    for (int i = 0; i < 20000; ++i)
        keys.push_back(i % 2 ? rng.below(1 << 20)
                             : rng.next() >> rng.below(64));
    for (const std::uint64_t k : keys)
        ASSERT_EQ(s.insert(k), ref.insert(k).second) << k;
    for (const std::uint64_t k : keys)
        ASSERT_FALSE(s.insert(k)) << k;
}

TEST(Rdram, PageHitFasterThanMiss)
{
    Rdram mem;
    auto miss = mem.access(0, 128, 0);
    EXPECT_FALSE(miss.pageHit);
    auto hit = mem.access(128, 128, miss.complete);
    EXPECT_TRUE(hit.pageHit);
    EXPECT_EQ(miss.complete - miss.start, ns(122) + ns(80));
    EXPECT_EQ(hit.complete - hit.start, ns(100) + ns(80));
}

TEST(Rdram, ChannelOccupancySerializesAccesses)
{
    Rdram mem;
    auto a = mem.access(0, 128, 0);
    auto b = mem.access(1 * san::sim::MiB, 128, 0); // different bank
    // Second access cannot start before the first releases the bus.
    EXPECT_EQ(b.start, a.start + ns(80));
}

TEST(Rdram, BandwidthBoundStreaming)
{
    // 1 MB of pipelined 128 B line fills (all issued immediately)
    // completes at channel bandwidth: ~1MB / 1.6GB/s plus one access
    // latency at the tail.
    Rdram mem;
    Tick done = 0;
    for (Addr a = 0; a < MiB; a += 128)
        done = std::max(done, mem.access(a, 128, 0).complete);
    const double seconds = toSeconds(done);
    EXPECT_GE(seconds, 1.0 * MiB / 1.6e9);
    EXPECT_LE(seconds, 1.0 * MiB / 1.6e9 + 200e-9);
    EXPECT_EQ(mem.bytesTransferred(), MiB);
}

TEST(Rdram, DistinctBanksTrackDistinctPages)
{
    RdramParams p;
    p.banks = 2;
    p.pageBytes = 1024;
    Rdram mem(p);
    Tick t = 0;
    t = mem.access(0, 64, t).complete;        // bank 0, page 0
    t = mem.access(1024, 64, t).complete;     // bank 1, page 1
    auto again0 = mem.access(64, 64, t);      // bank 0 page 0: hit
    auto again1 = mem.access(1024 + 64, 64, again0.complete);
    EXPECT_TRUE(again0.pageHit);
    EXPECT_TRUE(again1.pageHit);
}

} // namespace
