/**
 * @file
 * Layer probes: a seeded op stream replayed through one layer's public
 * functions, timed on its own, then checked against a recount made
 * without that layer, so a probe cannot get faster by skipping work.
 */

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "Bench.hh"
#include "apps/DetHash.hh"
#include "lb/ConnTable.hh"
#include "lb/LoadBalancer.hh"
#include "lb/Maglev.hh"
#include "mem/MemorySystem.hh"
#include "net/RouteTable.hh"
#include "net/Traffic.hh"
#include "sim/EventQueue.hh"
#include "sim/Random.hh"

namespace simbench {

namespace {

using namespace san;

double
nsPer(Clock::time_point t0, Clock::time_point t1, std::uint64_t ops)
{
    return seconds(t0, t1) * 1e9 / static_cast<double>(ops);
}

std::string
mismatch(const char *what, std::uint64_t got, std::uint64_t want)
{
    return std::string(what) + " " + std::to_string(got) + " != recount " +
           std::to_string(want);
}

// ---- sim: event queue at a fixed pending depth -----------------------

struct HoldState {
    sim::EventQueue queue;
    std::vector<sim::Tick> deltas;
    std::size_t next = 0;
    std::uint64_t remaining = 0; //!< reschedules still to make
    std::uint64_t executed = 0;
    std::uint64_t backwards = 0; //!< events seen before their predecessor
    sim::Tick last = 0;
};

/** The hold model: every executed event schedules its successor, so
 * the pending depth stays where it was filled. */
struct Hold {
    HoldState *s;

    void
    operator()() const
    {
        ++s->executed;
        if (s->queue.now() < s->last)
            ++s->backwards;
        s->last = s->queue.now();
        if (s->remaining > 0) {
            --s->remaining;
            s->queue.after(s->deltas[s->next++ % s->deltas.size()],
                           Hold{s});
        }
    }
};

// ---- mem: reference set-associative LRU with 3C classification -------

/** Fenwick tree over access times: counts the distinct lines touched
 * since a given time (each line marks only its latest touch). */
class Fenwick
{
  public:
    explicit Fenwick(std::size_t n) : tree_(n + 1, 0) {}

    void
    add(std::size_t i, int v)
    {
        for (++i; i < tree_.size(); i += i & (~i + 1))
            tree_[i] += v;
    }

    /** Sum over [0, i). */
    std::int64_t
    prefix(std::size_t i) const
    {
        std::int64_t s = 0;
        for (; i > 0; i -= i & (~i + 1))
            s += tree_[i];
        return s;
    }

  private:
    std::vector<std::int64_t> tree_;
};

/**
 * The cache the simulator models — set-associative, LRU, allocate on
 * every miss — with misses classed cold (first touch), conflict (the
 * line is among the last numLines distinct lines touched, so a fully
 * associative cache would have hit) or capacity, by stack distance.
 */
class RefCache
{
  public:
    RefCache(const mem::CacheParams &p, std::size_t maxAccesses)
        : line_(p.lineSize), assoc_(p.assoc),
          lines_(p.size / p.lineSize), sets_(lines_ / p.assoc),
          ways_(lines_), recent_(maxAccesses)
    {
    }

    /** @return whether the access hit. */
    bool
    access(mem::Addr addr)
    {
        const mem::Addr line = addr / line_;
        Way *set = &ways_[(line % sets_) * assoc_];
        const std::uint64_t now = clock_++;
        bool hit = false;
        for (unsigned w = 0; w < assoc_ && !hit; ++w)
            if (set[w].valid && set[w].tag == line) {
                set[w].lastUse = now;
                hit = true;
            }

        const auto seen = lastTouch_.find(line);
        if (hit) {
            ++hits;
        } else {
            ++misses;
            if (seen == lastTouch_.end()) {
                ++cold;
            } else {
                const std::int64_t distinct =
                    recent_.prefix(now) - recent_.prefix(seen->second + 1);
                distinct < static_cast<std::int64_t>(lines_) ? ++conflict
                                                              : ++capacity;
            }
            Way *victim = &set[0];
            for (unsigned w = 0; w < assoc_; ++w) {
                if (!set[w].valid) {
                    victim = &set[w];
                    break;
                }
                if (set[w].lastUse < victim->lastUse)
                    victim = &set[w];
            }
            *victim = Way{line, now, true};
        }
        if (seen != lastTouch_.end()) {
            recent_.add(seen->second, -1);
            seen->second = now;
        } else {
            lastTouch_.emplace(line, now);
        }
        recent_.add(now, 1);
        return hit;
    }

    std::uint64_t hits = 0, misses = 0, cold = 0, capacity = 0,
                  conflict = 0;

  private:
    struct Way {
        mem::Addr tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::uint64_t line_;
    unsigned assoc_;
    std::uint64_t lines_, sets_;
    std::vector<Way> ways_;
    std::unordered_map<mem::Addr, std::uint64_t> lastTouch_;
    Fenwick recent_;
    std::uint64_t clock_ = 0;
};

std::string
compareCache(const char *name, const mem::Cache &c, const RefCache &ref)
{
    const std::string n = name;
    if (c.hits() != ref.hits)
        return mismatch((n + " hits").c_str(), c.hits(), ref.hits);
    if (c.misses() != ref.misses)
        return mismatch((n + " misses").c_str(), c.misses(), ref.misses);
    if (c.coldMisses() != ref.cold)
        return mismatch((n + " cold").c_str(), c.coldMisses(), ref.cold);
    if (c.conflictMisses() != ref.conflict)
        return mismatch((n + " conflict").c_str(), c.conflictMisses(),
                        ref.conflict);
    if (c.capacityMisses() != ref.capacity)
        return mismatch((n + " capacity").c_str(), c.capacityMisses(),
                        ref.capacity);
    return {};
}

/** lb's connection signature of flow @p f (LoadBalancer's formula). */
std::uint64_t
flowSig(std::uint64_t tupleSeed, std::uint64_t f)
{
    const net::FiveTuple t = net::lfsrTuple(tupleSeed, f);
    return apps::detTupleHash(lb::LbParams{}.hashSeed, t.w0(), t.w1());
}

} // namespace

std::string
probeEventQueue(std::uint64_t seed, unsigned depth, Layers &out)
{
    constexpr std::uint64_t kHolds = 2'000'000;
    HoldState s;
    sim::Random rng(seed);
    s.deltas.resize(1 << 16);
    for (sim::Tick &d : s.deltas)
        d = 1 + rng.below(sim::ns(1000));
    s.remaining = kHolds;

    const auto t0 = Clock::now();
    for (unsigned i = 0; i < depth; ++i)
        s.queue.after(s.deltas[s.next++], Hold{&s});
    s.queue.run();
    const auto t1 = Clock::now();

    const std::uint64_t want = depth + kHolds;
    out.add("sim.probe_ns_per_event", nsPer(t0, t1, want));
    if (s.executed != want)
        return mismatch("event queue executed", s.executed, want);
    if (s.queue.executedEvents() != want)
        return mismatch("event queue count", s.queue.executedEvents(), want);
    if (s.backwards != 0)
        return mismatch("events out of order", s.backwards, 0);
    return {};
}

std::string
probeCache(std::uint64_t seed, Layers &out)
{
    // hashjoin's host footprint: 64 KB receive buffers scanned line by
    // line, a 128 KB bit-vector tested per record, and 64 B hash-table
    // buckets across the 8 MB R relation for the ~24% that match.
    constexpr mem::Addr kBuffers = 0x1000000, kBits = 0x4000000,
                        kBuckets = 0x8000000;
    constexpr std::uint64_t kBlocks = 1024, kRecordsPerBlock = 512,
                            kRBytes = 8ull << 20;
    struct Op {
        mem::Addr addr;
        bool write;
    };
    std::vector<Op> ops;
    sim::Random rng(seed);
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
        const bool build = b < kBlocks / 5; // R first: stores
        const mem::Addr buf = kBuffers + (b % 4) * 0x10000;
        for (mem::Addr a = buf; a < buf + 0x10000; a += 128)
            ops.push_back(Op{a, false});
        for (std::uint64_t r = 0; r < kRecordsPerBlock; ++r) {
            ops.push_back(Op{kBits + rng.below(128 * 1024), build});
            if (build || rng.chance(0.24))
                ops.push_back(
                    Op{kBuckets + rng.below(kRBytes) / 64 * 64, build});
        }
    }

    const mem::MemorySystemParams mp = mem::scaledHostMemoryParams();
    mem::Cache l1(mp.l1d), l2(*mp.l2);
    std::uint64_t l1Hits = 0;
    const auto t0 = Clock::now();
    for (const Op &op : ops) {
        if (l1.access(op.addr, op.write).hit)
            ++l1Hits;
        else
            l2.access(op.addr, op.write);
    }
    const auto t1 = Clock::now();
    out.add("mem.probe_ns_per_access",
            nsPer(t0, t1, ops.size() + l1.misses()));

    RefCache r1(mp.l1d, ops.size()), r2(*mp.l2, ops.size());
    for (const Op &op : ops)
        if (!r1.access(op.addr))
            r2.access(op.addr);
    if (l1Hits != l1.hits())
        return mismatch("l1d hits seen", l1Hits, l1.hits());
    if (std::string e = compareCache("l1d", l1, r1); !e.empty())
        return e;
    return compareCache("l2", l2, r2);
}

std::string
probeRouteTable(std::uint64_t seed, Layers &out)
{
    // 128 destinations: the k=8 fat-tree's hosts, numbered after its
    // 80 switches as Fabric numbers nodes.
    constexpr unsigned kDests = 128, kBase = 80, kPorts = 8;
    constexpr std::uint64_t kLookups = 4'000'000;
    net::RouteTable table;
    std::vector<unsigned> port(kDests);
    for (unsigned i = 0; i < kDests; ++i) {
        port[i] = static_cast<unsigned>(apps::detHash(seed, i) % kPorts);
        table.set(kBase + i, port[i]);
    }
    std::vector<net::NodeId> dsts(kLookups);
    sim::Random rng(seed);
    std::uint64_t want = 0;
    for (net::NodeId &d : dsts) {
        const auto i = static_cast<unsigned>(rng.below(kDests));
        d = kBase + i;
        want += port[i];
    }

    std::uint64_t sum = 0, absent = 0;
    const auto t0 = Clock::now();
    for (const net::NodeId d : dsts) {
        if (const unsigned *p = table.find(d))
            sum += *p;
        else
            ++absent;
    }
    const auto t1 = Clock::now();
    out.add("net.probe_route_ns", nsPer(t0, t1, kLookups));
    if (absent != 0)
        return mismatch("routes absent", absent, 0);
    if (sum != want)
        return mismatch("route port sum", sum, want);
    return {};
}

std::string
probeLb(std::uint64_t seed, Layers &out)
{
    constexpr unsigned kBackends = 8;
    constexpr std::uint64_t kLookupsPerFlow = 4, kPicksPerFlow = 64;
    const std::uint64_t flows = kLbFlows;

    std::vector<std::uint64_t> sigs(flows);
    std::unordered_set<std::uint64_t> live;
    for (std::uint64_t f = 0; f < flows; ++f) {
        sigs[f] = flowSig(seed, f);
        live.insert(sigs[f]);
    }
    // Three lookups of open flows to one of a never-opened (orphan)
    // flow, in a seeded order.
    std::vector<std::uint64_t> lookups;
    sim::Random rng(seed);
    for (std::uint64_t i = 0; i < flows * kLookupsPerFlow; ++i)
        lookups.push_back(i % 4 == 3 ? flowSig(seed, flows + i)
                                     : sigs[rng.below(flows)]);
    std::uint64_t wantHits = 0;
    for (const std::uint64_t sig : lookups)
        wantHits += live.count(sig);

    lb::ConnTable table(lb::ConnTable::Params{});
    std::uint64_t inserted = 0, hits = 0, wrongBackend = 0, removed = 0;
    const auto t0 = Clock::now();
    for (const std::uint64_t sig : sigs) {
        const auto r = table.insert(sig, sig % kBackends);
        inserted += r.ok && !r.existed;
    }
    const auto t1 = Clock::now();
    for (const std::uint64_t sig : lookups) {
        const auto r = table.lookup(sig);
        hits += r.hit;
        wrongBackend += r.hit && r.backend != sig % kBackends;
    }
    const auto t2 = Clock::now();
    for (const std::uint64_t sig : sigs)
        removed += table.remove(sig).removed;
    const auto t3 = Clock::now();

    lb::Maglev maglev(kBackends, seed);
    std::vector<std::uint64_t> picks(256, 0);
    const auto t4 = Clock::now();
    for (std::uint64_t pass = 0; pass < kPicksPerFlow; ++pass)
        for (const std::uint64_t sig : sigs)
            ++picks[maglev.pick(sig ^ pass)];
    const auto t5 = Clock::now();

    out.add("lb.probe_insert_ns", nsPer(t0, t1, flows));
    out.add("lb.probe_lookup_ns", nsPer(t1, t2, lookups.size()));
    out.add("lb.probe_remove_ns", nsPer(t2, t3, flows));
    out.add("lb.probe_maglev_ns", nsPer(t4, t5, flows * kPicksPerFlow));

    if (inserted != live.size())
        return mismatch("conn-table inserts", inserted, live.size());
    if (hits != wantHits)
        return mismatch("conn-table lookup hits", hits, wantHits);
    if (wrongBackend != 0)
        return mismatch("conn-table wrong backends", wrongBackend, 0);
    if (removed != live.size() || table.live() != 0)
        return mismatch("conn-table removes", removed, live.size());
    std::uint64_t picked = 0;
    for (unsigned b = 0; b < kBackends; ++b) {
        if (picks[b] == 0)
            return "maglev never picked backend " + std::to_string(b);
        picked += picks[b];
    }
    if (picked != flows * kPicksPerFlow)
        return mismatch("maglev picks in range", picked,
                        flows * kPicksPerFlow);
    return {};
}

} // namespace simbench
