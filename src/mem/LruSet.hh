/**
 * @file
 * Flat set structures behind the memory model's fully-associative
 * state: a fixed-capacity LRU set (the TLB and the 3C classifier's
 * shadow cache) and an insert-only key set (the classifier's
 * ever-seen lines).
 *
 * Neither allocates per access. The LRU set allocates its arrays on
 * first use and never again; the seen set allocates on first use and
 * then grows only when a key opens a new 512-key chunk. A cache that
 * does not classify misses pays nothing for them.
 */

#ifndef SAN_MEM_LRU_SET_HH
#define SAN_MEM_LRU_SET_HH

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
 * The recency list is intrusive over an array of capacity() nodes;
 * a linear-probing index of at least 2 x capacity() slots maps each
 * key to its node and deletes by backward shift, so it never holds
 * tombstones. @p Hash maps a key to 64 bits whose top bits pick the
 * home slot.
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
        slotBits_ = static_cast<unsigned>(
            std::bit_width(2 * capacity - 1));
    }

    /**
     * Make @p key the most recently used, inserting it if absent.
     * @retval true @p key was already in the set.
     */
    bool
    touch(std::uint64_t key)
    {
        if (slots_.empty()) {
            slots_.assign(std::size_t{1} << slotBits_, Slot{});
            nodes_.resize(capacity_);
        }
        std::size_t s = find(key);
        if (slots_[s].node != kNone) {
            const std::uint32_t n = slots_[s].node;
            if (n != head_) {
                unlink(n);
                pushFront(n);
            }
            return true;
        }
        std::uint32_t n;
        if (size_ < capacity_) {
            n = static_cast<std::uint32_t>(size_++);
        } else {
            n = tail_;
            unlink(n);
            erase(find(nodes_[n].key));
            s = find(key); // the shift may have moved the free slot
        }
        nodes_[n].key = key;
        slots_[s] = Slot{key, n};
        pushFront(n);
        return false;
    }

    bool
    contains(std::uint64_t key) const
    {
        return !slots_.empty() && slots_[find(key)].node != kNone;
    }

    /** Empty the set, keeping its storage. */
    void
    clear()
    {
        slots_.assign(slots_.size(), Slot{});
        size_ = 0;
        head_ = tail_ = kNone;
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    struct Node {
        std::uint64_t key = 0;
        std::uint32_t prev = kNone, next = kNone;
    };
    struct Slot {
        std::uint64_t key = 0;
        std::uint32_t node = kNone; //!< kNone: empty
    };

    std::size_t mask() const { return slots_.size() - 1; }

    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(Hash{}(key) >> (64 - slotBits_));
    }

    /** The slot holding @p key, or the empty slot ending its probe. */
    std::size_t
    find(std::uint64_t key) const
    {
        std::size_t s = home(key);
        while (slots_[s].node != kNone && slots_[s].key != key)
            s = (s + 1) & mask();
        return s;
    }

    /** Empty slot @p s, shifting later members of its run back. */
    void
    erase(std::size_t s)
    {
        for (std::size_t j = s;;) {
            j = (j + 1) & mask();
            if (slots_[j].node == kNone)
                break;
            // Move the entry at j into the hole unless its home lies
            // cyclically in (s, j]: then the hole is not on its probe.
            if (((j - home(slots_[j].key)) & mask()) >= ((j - s) & mask())) {
                slots_[s] = slots_[j];
                s = j;
            }
        }
        slots_[s].node = kNone;
    }

    void
    unlink(std::uint32_t n)
    {
        Node &x = nodes_[n];
        (x.prev == kNone ? head_ : nodes_[x.prev].next) = x.next;
        (x.next == kNone ? tail_ : nodes_[x.next].prev) = x.prev;
    }

    void
    pushFront(std::uint32_t n)
    {
        nodes_[n].prev = kNone;
        nodes_[n].next = head_;
        (head_ == kNone ? tail_ : nodes_[head_].prev) = n;
        head_ = n;
    }

    std::size_t capacity_;
    unsigned slotBits_ = 0;
    std::size_t size_ = 0;
    std::uint32_t head_ = kNone; //!< most recently used
    std::uint32_t tail_ = kNone; //!< least recently used
    std::vector<Node> nodes_;
    std::vector<Slot> slots_;
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
