/**
 * @file
 * Set-associative write-back cache model with LRU replacement and
 * cold/capacity/conflict miss classification.
 *
 * The cache tracks tags only (the simulator never stores data in
 * caches); timing is composed by MemorySystem.
 */

#ifndef SAN_MEM_CACHE_HH
#define SAN_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/LruSet.hh"

namespace san::mem {

using Addr = std::uint64_t;

/** Why an access missed. */
enum class MissClass { None, Cold, Capacity, Conflict };

/** Geometry and behaviour of one cache level. */
struct CacheParams {
    std::string name = "cache";
    std::uint64_t size = 32 * 1024;     //!< total bytes
    unsigned assoc = 2;                 //!< ways per set
    unsigned lineSize = 64;             //!< bytes per line
    bool classifyMisses = false;        //!< keep FA shadow for class.
};

/** Result of a single cache access. */
struct CacheAccess {
    bool hit = false;
    MissClass missClass = MissClass::None;
    bool writeback = false;             //!< a dirty line was evicted
};

/** A single level of set-associative write-back cache. */
class Cache
{
  public:
    /**
     * @throws std::invalid_argument unless the line size and
     * associativity are non-zero, the size is a non-zero multiple of
     * lineSize x assoc, and both the line size and the set count
     * (size / (lineSize x assoc)) are powers of two. The
     * associativity may be any value.
     */
    explicit Cache(const CacheParams &params);

    /**
     * Access one line. @p addr may be any byte address; the line
     * containing it is accessed.
     */
    CacheAccess access(Addr addr, bool write);

    /** Probe without disturbing state. */
    bool contains(Addr addr) const;

    /** Drop every line (losing dirty data; model-level reset). */
    void invalidateAll();

    const CacheParams &params() const { return params_; }
    std::uint64_t numLines() const { return lines_.size(); }

    /** @{ Statistics. */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t coldMisses() const { return cold_; }
    std::uint64_t capacityMisses() const { return capacity_; }
    std::uint64_t conflictMisses() const { return conflict_; }
    std::uint64_t writebacks() const { return writebacks_; }
    double
    missRate() const
    {
        const auto total = hits_ + misses_;
        return total ? static_cast<double>(misses_) / total : 0.0;
    }
    /** @} */

  private:
    struct Line {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    Addr lineAddr(Addr a) const { return a >> lineShift_; }
    /** Index in lines_ of the first way of the set holding @p line. */
    std::size_t
    setBase(Addr line) const
    {
        return static_cast<std::size_t>(line & setMask_) * params_.assoc;
    }

    CacheParams params_;
    std::vector<Line> lines_; //!< set s holds lines_[s*assoc, (s+1)*assoc)
    unsigned lineShift_;
    Addr setMask_;
    std::uint64_t useClock_ = 0;

    // Miss classification state, allocated on the first classified
    // access and kept across invalidateAll(): the lines ever seen
    // (cold) and a fully-associative LRU shadow of equal capacity
    // (capacity vs conflict).
    SeenSet seen_;
    LruSet shadow_;

    std::uint64_t hits_ = 0, misses_ = 0;
    std::uint64_t cold_ = 0, capacity_ = 0, conflict_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace san::mem

#endif // SAN_MEM_CACHE_HH
