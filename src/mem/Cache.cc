#include "mem/Cache.hh"

#include <algorithm>
#include <stdexcept>

namespace san::mem {

namespace {

/** Lines held by a cache of geometry @p p, once it is checked. */
std::uint64_t
checkedLines(const CacheParams &p)
{
    if (p.lineSize == 0 || p.assoc == 0)
        throw std::invalid_argument(
            p.name + ": line size and associativity must be non-zero");
    const std::uint64_t setBytes = std::uint64_t{p.lineSize} * p.assoc;
    if (p.size == 0 || p.size % setBytes != 0)
        throw std::invalid_argument(
            p.name + ": size " + std::to_string(p.size) +
            " B is not a non-zero multiple of lineSize x assoc (" +
            std::to_string(setBytes) + " B)");
    return p.size / p.lineSize;
}

} // namespace

Cache::Cache(const CacheParams &params)
    : params_(params),
      numLines_(checkedLines(params)),
      numSets_(numLines_ / params.assoc),
      sets_(numSets_, std::vector<Line>(params.assoc)),
      shadow_(numLines_)
{}

CacheAccess
Cache::access(Addr addr, bool write)
{
    const Addr line = lineAddr(addr);
    auto &set = sets_[setIndex(line)];
    ++useClock_;

    for (auto &way : set) {
        if (way.valid && way.tag == line) {
            way.lastUse = useClock_;
            way.dirty |= write;
            ++hits_;
            if (params_.classifyMisses)
                shadow_.touch(line);
            return CacheAccess{true, MissClass::None, false};
        }
    }

    // Miss: classify, then fill via LRU replacement.
    ++misses_;
    MissClass mc = MissClass::Capacity;
    if (params_.classifyMisses) {
        // A line that a fully-associative cache of the same capacity
        // would still hold missed only because of the mapping:
        // conflict. The shadow holds only lines seen before, so any
        // other line is cold on first touch, and otherwise the
        // working set simply exceeds capacity.
        if (shadow_.touch(line)) {
            mc = MissClass::Conflict;
            ++conflict_;
        } else if (seen_.insert(line)) {
            mc = MissClass::Cold;
            ++cold_;
        } else {
            ++capacity_;
        }
    }

    Line *victim = &set[0];
    for (auto &way : set) {
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (way.lastUse < victim->lastUse)
            victim = &way;
    }

    const bool writeback = victim->valid && victim->dirty;
    writebacks_ += writeback;
    victim->tag = line;
    victim->valid = true;
    victim->dirty = write;
    victim->lastUse = useClock_;
    return CacheAccess{false, mc, writeback};
}

bool
Cache::contains(Addr addr) const
{
    const Addr line = lineAddr(addr);
    const auto &set = sets_[setIndex(line)];
    return std::any_of(set.begin(), set.end(), [&](const Line &way) {
        return way.valid && way.tag == line;
    });
}

void
Cache::invalidateAll()
{
    for (auto &set : sets_)
        for (auto &way : set)
            way = Line{};
}

} // namespace san::mem
