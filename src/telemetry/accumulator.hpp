// telemetry::Accumulator — lock-free online running stats for the serving
// path (extension; the paper's lesson that modeled cost drifts from measured
// cost applies at serve time too, so the Engine records cheap live
// observations next to the first-touch anchors its arbiter prices from).
//
// One Accumulator tracks a single series of non-negative integer
// observations (cycles per vector on the Engine's hot path), every field a
// lifetime total:
//
//   * sum                           -> mean;
//   * min / max                     -> lifetime extremes;
//   * a fixed 64-bucket log2-scaled histogram -> count (its mass) and
//     p50/p99/any quantile without allocation (bucket b holds values with
//     bit_width == b; bench_ipc records its round trips into the same
//     buckets);
//   * the vectors the observations served beyond one each -> vectors (an
//     Engine batch of k vectors is one observation of its per-vector cost).
//
// No field is ever halved or reset, so a count never falls: an observer who
// wants a recent window subtracts two snapshots (count, and count x mean
// for the sum).
//
// Recording is two relaxed fetch_adds, a third only for an observation of
// several vectors (min/max degrade to a CAS only when they actually
// change).  count() is the untimed form: one fetch_add into bucket 0, plus
// the vectors word for several vectors, so a series can count requests
// without any tick read behind them.  The storage is striped: each
// recording thread lands on its own cache-line-padded Cell, so concurrent
// recorders on one series do not bounce a shared line.  snapshot() merges
// the stripes into a plain Stats value.  Every field is exact under any
// interleaving (integer fetch_add / monotone CAS), which is what the
// 8-thread bit-stability test asserts.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace whtlab::telemetry {

inline constexpr int kBuckets = 64;
inline constexpr int kStripes = 8;  ///< power of two (stripe index is masked)

/// Unserialized tick source for interval timing on the serving hot path.
/// Same time base as perf::read_cycles (TSC on x86, steady_clock ns
/// elsewhere) but without the fencing — a few ticks of skew is noise at the
/// microsecond scale of a served request, and the fences would double the
/// cost of recording.
inline std::uint64_t now_ticks() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Plain-value snapshot of one series (also the merge unit: parallel
/// aggregation is just field-wise addition, since every field is a
/// lifetime total).
struct Stats {
  std::uint64_t count = 0;  ///< histogram mass: observations recorded
  std::uint64_t vectors = 0;  ///< vectors those observations served
  std::uint64_t min = ~std::uint64_t{0};  ///< ~0 when count == 0
  std::uint64_t max = 0;
  double sum = 0.0;
  std::uint64_t buckets[kBuckets] = {};

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  /// Quantile from the log2 histogram: the upper bound (2^b - 1, as a
  /// double) of the bucket holding the q-th ranked observation.  Power-of-
  /// two quantisation — good to within 2x, allocation-free, and monotone in
  /// q (so p50 <= p99 <= max-bucket-bound always holds).  q outside [0, 1]
  /// is clamped; returns 0 for an empty series.
  double percentile(double q) const {
    if (count == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count - 1));
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += buckets[b];
      if (seen > rank) {
        return b == 0 ? 0.0 : std::ldexp(1.0, b) - 1.0;
      }
    }
    return std::ldexp(1.0, kBuckets);  // unreachable
  }

  void merge(const Stats& other) {
    count += other.count;
    vectors += other.vectors;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    sum += other.sum;
    for (int b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
  }
};

namespace detail {

/// One stripe.  Padded to its own cache lines so stripes never share.
struct alignas(64) Cell {
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> min{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max{0};
  /// Vectors beyond the first of each observation, so an observation of
  /// one vector never writes it.
  std::atomic<std::uint64_t> extra_vectors{0};
  std::atomic<std::uint64_t> buckets[kBuckets] = {};

  void record(std::uint64_t value, std::uint64_t vectors) {
    sum.fetch_add(value, std::memory_order_relaxed);
    count(bucket_of(value), vectors);
    // Load-then-CAS: after warm-up min/max almost never move, so the common
    // case is two relaxed loads and no RMW at all.
    std::uint64_t m = min.load(std::memory_order_relaxed);
    while (value < m &&
           !min.compare_exchange_weak(m, value, std::memory_order_relaxed)) {
    }
    std::uint64_t x = max.load(std::memory_order_relaxed);
    while (value > x &&
           !max.compare_exchange_weak(x, value, std::memory_order_relaxed)) {
    }
  }

  void count(int bucket, std::uint64_t vectors) {
    buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    if (vectors > 1) {
      extra_vectors.fetch_add(vectors - 1, std::memory_order_relaxed);
    }
  }

  void load_into(Stats& out) const {
    Stats part;
    part.min = min.load(std::memory_order_relaxed);
    part.max = max.load(std::memory_order_relaxed);
    part.sum = static_cast<double>(sum.load(std::memory_order_relaxed));
    for (int b = 0; b < kBuckets; ++b) {
      part.buckets[b] = buckets[b].load(std::memory_order_relaxed);
      part.count += part.buckets[b];
    }
    part.vectors =
        part.count + extra_vectors.load(std::memory_order_relaxed);
    out.merge(part);
  }

  static int bucket_of(std::uint64_t value) {
    return std::min(static_cast<int>(std::bit_width(value)), kBuckets - 1);
  }
};
static_assert(sizeof(Cell) == 9 * 64, "a stripe is 9 cache lines");

}  // namespace detail

/// Small dense thread index for striping (hashing std::thread::id gives no
/// distribution guarantee; a counter round-robins threads across stripes,
/// so up to kStripes recorders never collide).
inline unsigned stripe_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index & (kStripes - 1);
}

class Accumulator {
 public:
  Accumulator() = default;
  Accumulator(const Accumulator&) = delete;
  Accumulator& operator=(const Accumulator&) = delete;

  /// One observation of `value`, standing for `vectors` served vectors.
  void record(std::uint64_t value, std::uint64_t vectors = 1) {
    cells_[stripe_index()].record(value, vectors);
  }

  /// One observation with no value behind it: it counts, with its vectors,
  /// in bucket 0 and leaves sum, min and max alone, so a series fed only
  /// this way has a count and no distribution.
  void count(std::uint64_t vectors = 1) {
    cells_[stripe_index()].count(0, vectors);
  }

  Stats snapshot() const {
    Stats out;
    for (const auto& cell : cells_) cell.load_into(out);
    return out;
  }

 private:
  detail::Cell cells_[kStripes];
};

}  // namespace whtlab::telemetry
