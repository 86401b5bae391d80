// The one lock-free memo primitive of the serving stack: a
// direct-mapped, fixed-size cache of fixed-width Weight rows, each
// validated by a (key, epoch) pair. ServingCore's (s, t) result memo is
// its width-1 case (key = (s, t), epoch = the snapshot epoch); the
// sharded engine's boundary-row cache stores |S_i|-wide shard-to-
// boundary rows (key = (vertex, shard), epoch = the shard epoch).
//
// Invalidation is free: the epoch is part of the validation, so a
// publish simply makes the old entries stop matching. Both paths are
// wait-free: a slot is a seqlock record of relaxed atomics (even version
// = stable, odd = an insert is in flight); readers re-validate the
// version after loading the payload, so a torn read is a miss, never a
// wrong hit, and a contended insert is dropped. All fields are atomics,
// so the scheme is data-race-free (TSan-clean).
#ifndef STL_ENGINE_SLOT_CACHE_H_
#define STL_ENGINE_SLOT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "graph/graph.h"

namespace stl {

/// Direct-mapped, version-validated cache of fixed-width Weight rows.
/// Thread-safe: Lookup and Insert may race freely from any threads.
class SlotCache {
 public:
  /// A disabled cache (Lookup always misses, Insert is a no-op) until
  /// Init() arms it.
  SlotCache() = default;

  /// Sizes the cache: `entries` slots (rounded up to a power of two),
  /// each holding a row of up to `width` weights. entries == 0 or
  /// width == 0 leaves it disabled and allocates nothing. Call at most
  /// once, before any concurrent use.
  void Init(size_t entries, uint32_t width);

  /// True once Init() armed the cache.
  bool enabled() const { return slots_ != nullptr; }

  /// True iff the cache holds the row of `key` validated at `epoch`;
  /// copies its first `width` (<= the Init() width) weights into
  /// `out`. Counts one lookup, and one hit on success. `out` may be
  /// partially written on a miss.
  bool Lookup(uint64_t key, uint64_t epoch, uint32_t width,
              Weight* out) const;

  /// Records the first `width` weights of `row` for `key` at `epoch`,
  /// overwriting whatever occupied the slot. Dropped silently when
  /// another thread is mid-insert on the same slot.
  void Insert(uint64_t key, uint64_t epoch, uint32_t width,
              const Weight* row);

  /// Probes so far (relaxed; monitoring only).
  uint64_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }
  /// Probes answered from the cache so far (relaxed).
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// hits / lookups (0 when the cache is disabled or untouched).
  double hit_rate() const {
    const uint64_t n = lookups();
    return n > 0 ? static_cast<double>(hits()) / static_cast<double>(n)
                 : 0.0;
  }

  /// Zeroes the hit/lookup counters (entries stay valid: they are
  /// epoch-validated, so stale ones can never serve a wrong answer).
  void ResetCounters() {
    lookups_.store(0, std::memory_order_relaxed);
    hits_.store(0, std::memory_order_relaxed);
  }

  /// The 64-bit key of a 32-bit pair: (hi << 32) | lo.
  static uint64_t PairKey(uint32_t hi, uint32_t lo) {
    return (static_cast<uint64_t>(hi) << 32) | lo;
  }

 private:
  /// One seqlock record; the row payload lives in rows_ at this slot's
  /// offset (slot index * width_).
  struct Slot {
    std::atomic<uint64_t> version{0};         // even = stable, odd = writing
    std::atomic<uint64_t> key{~uint64_t{0}};
    std::atomic<uint64_t> epoch{0};
  };

  size_t mask_ = 0;
  uint32_t width_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<std::atomic<Weight>[]> rows_;
  mutable std::atomic<uint64_t> lookups_{0};
  mutable std::atomic<uint64_t> hits_{0};
};

}  // namespace stl

#endif  // STL_ENGINE_SLOT_CACHE_H_
