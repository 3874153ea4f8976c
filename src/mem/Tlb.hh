/**
 * @file
 * Fully-associative TLB with LRU replacement (64 entries in the
 * modelled system).
 */

#ifndef SAN_MEM_TLB_HH
#define SAN_MEM_TLB_HH

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "mem/Cache.hh"
#include "mem/LruSet.hh"

namespace san::mem {

/** Fully-associative translation lookaside buffer. */
class Tlb
{
  public:
    /**
     * @throws std::invalid_argument on zero entries or a page size
     * that is not a power of two.
     */
    Tlb(unsigned entries, unsigned page_size)
        : pageShift_(static_cast<unsigned>(std::countr_zero(page_size))),
          lru_(checkedEntries(entries, page_size))
    {}

    /** @retval true the page was resident (TLB hit). */
    bool
    access(Addr addr)
    {
        const bool hit = lru_.touch(addr >> pageShift_);
        ++(hit ? hits_ : misses_);
        return hit;
    }

    void flush() { lru_.clear(); }

    unsigned entries() const { return static_cast<unsigned>(lru_.capacity()); }
    unsigned pageSize() const { return 1u << pageShift_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    static unsigned
    checkedEntries(unsigned entries, unsigned page_size)
    {
        if (entries == 0 || !std::has_single_bit(page_size))
            throw std::invalid_argument(
                "TLB needs a non-zero entry count and a power-of-two "
                "page size, got " +
                std::to_string(entries) + " entries of " +
                std::to_string(page_size) + " B");
        return entries;
    }

    unsigned pageShift_; //!< log2 of the page size
    LruSet lru_;
    std::uint64_t hits_ = 0, misses_ = 0;
};

} // namespace san::mem

#endif // SAN_MEM_TLB_HH
