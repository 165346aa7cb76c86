// Latency statistics for the benchmark: a fixed-size log-linear histogram
// and percentiles that say how many samples back them.
//
// Buckets are exact below 128 and split every power of two above it into
// 128 linear sub-buckets, so a bucket is never wider than 1/128 of its lower
// bound; reporting the bucket midpoint keeps every percentile within 0.4%
// of a sample that lies in its bucket.  The table is a fixed array touched
// in full at construction, so recording never allocates and the memory it
// costs does not depend on how many requests a run completes.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile read from a histogram, with the counts that support it.
struct Percentile {
  double value = 0.0;          ///< bucket midpoint, in the recorded unit
  std::uint64_t samples = 0;   ///< all samples in the histogram
  std::uint64_t beyond = 0;    ///< samples ranked strictly above the percentile
  /// At least ten samples lie beyond the percentile: it is a measured tail,
  /// not the largest few values.
  bool supported() const { return beyond >= 10; }
};

class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * static_cast<int>(kSub);

  Histogram();

  void record(std::uint64_t value);
  void merge(const Histogram& other);
  void clear();

  std::uint64_t count() const { return count_; }

  /// The q-quantile (0 < q <= 1): the smallest recorded value whose rank is
  /// at least ceil(q * count), reported as its bucket midpoint.
  Percentile percentile(double q) const;

  static int bucket_of(std::uint64_t value);
  /// Smallest value that falls in `bucket`, and the bucket's width.
  static std::uint64_t bucket_low(int bucket);
  static std::uint64_t bucket_width(int bucket);

 private:
  std::array<std::uint64_t, kBuckets> buckets_;
  std::uint64_t count_ = 0;
};

/// Median of a small sample (per-slice figures); 0 for an empty one.
double median(std::vector<double> values);

/// The median over `slices` of each slice's q-quantile, so one slice that
/// a transient stall hit cannot move it.  samples and beyond are the
/// smallest over the slices: the figure is supported only when every
/// slice's percentile is.
Percentile median_percentile(const std::vector<Histogram>& slices, double q);

}  // namespace perfbench
