/**
 * @file
 * Flat set structures behind the memory model's fully-associative
 * state: a fixed-capacity LRU set (the TLB and the 3C classifier's
 * shadow cache) and an insert-only key set (the classifier's
 * ever-seen lines).
 *
 * The LRU set is a circular, sentinel-headed recency list over a
 * node array, indexed by hash chains threaded through the same
 * nodes; the seen set is a linear-probing table of bitmap chunks.
 * Neither allocates per access. The LRU set allocates its arrays on
 * first use and never again; the seen set allocates on first use and
 * then grows only when a key opens a new 512-key chunk. A cache that
 * does not classify misses pays nothing for them.
 */

#ifndef SAN_MEM_LRU_SET_HH
#define SAN_MEM_LRU_SET_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace san::mem {

/** Fibonacci hashing: the slot is taken from the product's top bits. */
struct FibonacciHash {
    std::uint64_t
    operator()(std::uint64_t key) const
    {
        return key * 0x9E3779B97F4A7C15ull;
    }
};

/**
 * A set of at most capacity() keys in recency order: touching an
 * absent key into a full set evicts the least recently used one.
 *
 * The recency list is intrusive and circular over an array of
 * capacity() + 1 nodes; the last node is a sentinel whose next is
 * the most and whose prev the least recently used key, so linking
 * and unlinking never test for an end. A chained index of at least
 * 2 x capacity() buckets, each the head of a singly-linked chain
 * threaded through the nodes, maps a key to its node. A miss into a
 * full set unlinks the tail node from its chain, reuses it for the
 * new key and pushes it on that key's chain: nothing moves and
 * nothing is looked up twice. @p Hash maps a key to 64 bits whose
 * top bits pick the bucket.
 */
template <typename Hash = FibonacciHash>
class BasicLruSet
{
  public:
    explicit BasicLruSet(std::size_t capacity)
        : capacity_(capacity)
    {
        if (capacity == 0 || capacity > kNone / 2)
            throw std::invalid_argument(
                "LRU set capacity must be in [1, 2^31), got " +
                std::to_string(capacity));
        bucketBits_ = static_cast<unsigned>(
            std::bit_width(2 * capacity - 1));
    }

    /**
     * Make @p key the most recently used, inserting it if absent.
     * @retval true @p key was already in the set.
     */
    bool
    touch(std::uint64_t key)
    {
        if (buckets_.empty()) {
            buckets_.assign(std::size_t{1} << bucketBits_, kNone);
            nodes_.resize(capacity_ + 1);
            resetList();
        }
        std::uint32_t &head = buckets_[bucket(key)];
        for (std::uint32_t n = head; n != kNone; n = nodes_[n].chain) {
            if (nodes_[n].key == key) {
                unlink(n);
                pushFront(n);
                return true;
            }
        }
        std::uint32_t n;
        if (size_ < capacity_) {
            n = static_cast<std::uint32_t>(size_++);
        } else {
            n = nodes_[sentinel()].prev;
            unlink(n);
            unchain(n);
        }
        nodes_[n].key = key;
        nodes_[n].chain = head;
        head = n;
        pushFront(n);
        return false;
    }

    bool
    contains(std::uint64_t key) const
    {
        if (buckets_.empty())
            return false;
        for (std::uint32_t n = buckets_[bucket(key)]; n != kNone;
             n = nodes_[n].chain)
            if (nodes_[n].key == key)
                return true;
        return false;
    }

    /** Empty the set, keeping its storage. */
    void
    clear()
    {
        if (buckets_.empty())
            return;
        std::fill(buckets_.begin(), buckets_.end(), kNone);
        size_ = 0;
        resetList();
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    struct Node {
        std::uint64_t key = 0;
        std::uint32_t prev = 0, next = 0; //!< recency list
        std::uint32_t chain = kNone;      //!< next node in the bucket
    };

    std::uint32_t sentinel() const
    {
        return static_cast<std::uint32_t>(capacity_);
    }

    std::size_t
    bucket(std::uint64_t key) const
    {
        return static_cast<std::size_t>(Hash{}(key) >> (64 - bucketBits_));
    }

    void
    resetList()
    {
        nodes_[sentinel()].prev = nodes_[sentinel()].next = sentinel();
    }

    /** Remove node @p n from its bucket's chain. */
    void
    unchain(std::uint32_t n)
    {
        std::uint32_t *link = &buckets_[bucket(nodes_[n].key)];
        while (*link != n)
            link = &nodes_[*link].chain;
        *link = nodes_[n].chain;
    }

    void
    unlink(std::uint32_t n)
    {
        const Node &x = nodes_[n];
        nodes_[x.prev].next = x.next;
        nodes_[x.next].prev = x.prev;
    }

    void
    pushFront(std::uint32_t n)
    {
        Node &s = nodes_[sentinel()];
        nodes_[n].prev = sentinel();
        nodes_[n].next = s.next;
        nodes_[s.next].prev = n;
        s.next = n;
    }

    std::size_t capacity_;
    unsigned bucketBits_ = 0;
    std::size_t size_ = 0;
    std::vector<Node> nodes_;            //!< capacity_ + 1 with sentinel
    std::vector<std::uint32_t> buckets_; //!< chain heads, kNone: empty
};

using LruSet = BasicLruSet<>;

/**
 * An insert-only set of 64-bit keys, stored as bitmaps of 512
 * consecutive keys found through a linear-probing table of chunk
 * numbers. Keys that cluster (cache line numbers) cost a bit each.
 */
class SeenSet
{
  public:
    /** @retval true @p key was absent and has been added. */
    bool
    insert(std::uint64_t key)
    {
        std::uint64_t &word = chunk(key >> kChunkBits)[(key >> 6) & 7];
        const std::uint64_t bit = std::uint64_t{1} << (key & 63);
        const bool fresh = !(word & bit);
        word |= bit;
        return fresh;
    }

  private:
    static constexpr unsigned kChunkBits = 9;
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    using Chunk = std::array<std::uint64_t, (1u << kChunkBits) / 64>;

    struct Slot {
        std::uint64_t id = 0;
        std::uint32_t chunk = kNone; //!< kNone: empty
    };

    std::size_t
    find(std::uint64_t id) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t s = static_cast<std::size_t>(
            FibonacciHash{}(id) >> (64 - slotBits_));
        while (slots_[s].chunk != kNone && slots_[s].id != id)
            s = (s + 1) & mask;
        return s;
    }

    /** The bitmap of chunk @p id, created empty if absent. */
    Chunk &
    chunk(std::uint64_t id)
    {
        if (2 * (chunks_.size() + 1) > slots_.size())
            grow();
        const std::size_t s = find(id);
        if (slots_[s].chunk == kNone) {
            slots_[s] = Slot{id, static_cast<std::uint32_t>(chunks_.size())};
            chunks_.emplace_back();
        }
        return chunks_[slots_[s].chunk];
    }

    void
    grow()
    {
        slotBits_ = slots_.empty() ? 4 : slotBits_ + 1;
        const std::vector<Slot> old = std::exchange(
            slots_, std::vector<Slot>(std::size_t{1} << slotBits_));
        for (const Slot &o : old)
            if (o.chunk != kNone)
                slots_[find(o.id)] = o;
    }

    unsigned slotBits_ = 0;
    std::vector<Slot> slots_;
    std::vector<Chunk> chunks_;
};

} // namespace san::mem

#endif // SAN_MEM_LRU_SET_HH
