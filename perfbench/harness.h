// Measurement primitives of the serving benchmark: a fixed-size latency
// histogram, a bounded audit-sample reservoir, an in-memory span log,
// and process counters (CPU time, peak RSS). Everything here is sized at
// construction, so a longer run costs the harness no extra memory and
// peak_rss_mb measures the serving stack, not the benchmark's buffers.
#ifndef STL_PERFBENCH_HARNESS_H_
#define STL_PERFBENCH_HARNESS_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace stl::perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady_clock); only differences are meaningful.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (all threads) in seconds.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set size of this process so far, in MiB.
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Fixed-size log-linear histogram of nanosecond values: 64 exact
/// buckets, then 64 linear sub-buckets per power-of-two octave (each
/// under 1.6% wide). Quantiles interpolate by rank inside the bucket, so
/// a median moves with the data instead of snapping to bucket midpoints
/// (a snapped value would read identically run after run). Record() is
/// wait-free and callable from any thread; read quantiles once writers
/// are quiet.
class Histogram {
 public:
  static constexpr int kSub = 64;
  static constexpr int kMaxMsb = 47;  // ~39 hours; larger values clamp
  static constexpr int kBuckets = kSub + (kMaxMsb - 5) * kSub;

  void Record(int64_t ns) {
    const uint64_t v = ns < 0 ? 0 : static_cast<uint64_t>(ns);
    buckets_[Index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }

  /// Adds every value recorded in `other` to this histogram.
  void Merge(const Histogram& other) {
    for (int b = 0; b < kBuckets; ++b) {
      buckets_[b].fetch_add(other.buckets_[b].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    count_.fetch_add(other.Count(), std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    const uint64_t v = other.max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }

  /// Largest recorded value in ns (exact).
  double Max() const {
    return static_cast<double>(max_.load(std::memory_order_relaxed));
  }

  /// Value at quantile q in [0, 1], in ns; 0 when empty.
  double Quantile(double q) const {
    const uint64_t n = Count();
    if (n == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(n - 1);
    uint64_t before = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const uint64_t c = buckets_[b].load(std::memory_order_relaxed);
      if (c == 0) continue;
      if (rank < static_cast<double>(before + c)) {
        const double frac =
            (rank - static_cast<double>(before) + 0.5) / static_cast<double>(c);
        return static_cast<double>(Lower(b)) +
               frac * static_cast<double>(Width(b));
      }
      before += c;
    }
    return Max();
  }

 private:
  static int Index(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    int msb = 63 - __builtin_clzll(v);
    if (msb > kMaxMsb) return kBuckets - 1;
    const int shift = msb - 6;
    return kSub + shift * kSub + static_cast<int>((v >> shift) & (kSub - 1));
  }
  static uint64_t Lower(int b) {
    if (b < kSub) return static_cast<uint64_t>(b);
    const int shift = (b - kSub) / kSub;
    const uint64_t sub = static_cast<uint64_t>((b - kSub) % kSub);
    return (kSub + sub) << shift;
  }
  static uint64_t Width(int b) {
    return b < kSub ? 1 : uint64_t{1} << ((b - kSub) / kSub);
  }

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> max_{0};
};

/// One served answer kept for the off-the-clock Dijkstra audit.
struct AuditSample {
  Vertex s = 0;
  Vertex t = 0;
  uint64_t epoch = 0;
  Weight distance = 0;
};

/// Uniform reservoir of audit samples with a fixed capacity (Vitter's
/// algorithm R, seeded): every offered answer has the same chance to be
/// audited, whatever the run length. Thread-safe.
class AuditReservoir {
 public:
  AuditReservoir(size_t capacity, uint64_t seed) : cap_(capacity), rng_(seed) {
    kept_.reserve(capacity);
  }

  void Offer(const AuditSample& sample) {
    std::lock_guard<std::mutex> lock(mu_);
    ++seen_;
    if (kept_.size() < cap_) {
      kept_.push_back(sample);
      return;
    }
    const uint64_t j = rng_.NextBounded(seen_);
    if (j < cap_) kept_[j] = sample;
  }

  std::vector<AuditSample> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return kept_;
  }

 private:
  std::mutex mu_;
  const size_t cap_;
  Rng rng_;                        // guarded by mu_
  uint64_t seen_ = 0;              // guarded by mu_
  std::vector<AuditSample> kept_;  // guarded by mu_
};

/// One traced interval. `key` identifies the span (request tag, RPC tag,
/// batch index; the top two bits name the key space); `parent` is the
/// causing span's key, or 0 when it is linked later by time overlap.
struct Span {
  const char* name = "";
  uint64_t key = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Key spaces of Span::key.
inline constexpr uint64_t kRequestKey = 0;
inline constexpr uint64_t kRpcKey = uint64_t{1} << 62;
inline constexpr uint64_t kReplicaKey = uint64_t{2} << 62;
inline constexpr uint64_t kBatchKey = uint64_t{3} << 62;

/// Bounded in-memory span log: spans past the capacity are counted and
/// dropped, never grown into. Add() is wait-free.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) : cap_(capacity), spans_(new Span[capacity]) {}

  void Add(const char* name, uint64_t key, uint64_t parent, int64_t start_ns,
           int64_t end_ns) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= cap_) return;
    spans_[i] = Span{name, key, parent, start_ns, end_ns};
  }

  size_t size() const {
    return std::min(next_.load(std::memory_order_relaxed), cap_);
  }
  uint64_t dropped() const {
    const size_t n = next_.load(std::memory_order_relaxed);
    return n > cap_ ? n - cap_ : 0;
  }
  Span* data() { return spans_.get(); }

 private:
  const size_t cap_;
  std::unique_ptr<Span[]> spans_;
  std::atomic<size_t> next_{0};
};

}  // namespace stl::perfbench

#endif  // STL_PERFBENCH_HARNESS_H_
