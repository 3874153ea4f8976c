/**
 * @file
 * Run fingerprint: one 64-bit integer summarizing an entire run.
 *
 * Attached as an EventQueue observer, the fingerprint folds every
 * executed event's (tick, sequence-number) pair through a splitmix64
 * avalanche. Because event sequence numbers are assigned in schedule
 * order and ties break deterministically, two runs produce the same
 * fingerprint iff they executed the same events at the same times in
 * the same order — the strongest cheap determinism check available.
 * End-of-run statistic values are folded on top so a run that
 * somehow times identically but computes different numbers still
 * diverges.
 *
 * The fold is associative-free (order-sensitive) by design: a
 * reordered pair of same-tick events changes the value.
 */

#ifndef SAN_OBS_FINGERPRINT_HH
#define SAN_OBS_FINGERPRINT_HH

#include <cstdint>
#include <string_view>

#include "sim/EventQueue.hh"
#include "sim/Types.hh"

namespace san::obs {

/** Streaming 64-bit fingerprint of a simulation run. */
class RunFingerprint : public sim::EventQueue::Observer
{
  public:
    /** EventQueue::Observer: fold one executed event. */
    void
    onEvent(sim::Tick when, std::uint64_t seq) override
    {
        fold(when);
        fold(seq);
        ++events_;
    }

    /** Fold one 64-bit value into the hash. */
    void
    fold(std::uint64_t v)
    {
        hash_ = mix(hash_ ^ (v + 0x9e3779b97f4a7c15ull));
    }

    /** Fold a double by bit pattern (exact, not approximate). */
    void
    fold(double v)
    {
        // Canonicalize the two zero bit patterns; NaN payloads are
        // folded as-is (a NaN stat is itself a regression to catch).
        if (v == 0.0)
            v = 0.0;
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        __builtin_memcpy(&bits, &v, sizeof(bits));
        fold(bits);
    }

    /** Fold a named end-of-run statistic value. */
    void
    foldStat(std::string_view name, double value)
    {
        // FNV-1a over the name keeps renames from colliding silently.
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (const char c : name) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ull;
        }
        fold(h);
        fold(value);
    }

    /** The fingerprint so far. */
    std::uint64_t value() const { return mix(hash_ ^ events_); }

    /** Events folded so far (sanity/debug aid). */
    std::uint64_t eventsFolded() const { return events_; }

    void
    reset()
    {
        hash_ = 0;
        events_ = 0;
    }

  private:
    /** splitmix64 finalizer: full-avalanche 64-bit mix. */
    static std::uint64_t
    mix(std::uint64_t z)
    {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::uint64_t hash_ = 0;
    std::uint64_t events_ = 0;
};

} // namespace san::obs

#endif // SAN_OBS_FINGERPRINT_HH
