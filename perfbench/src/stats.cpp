#include "stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace perfbench {

Histogram::Histogram() { clear(); }

void Histogram::clear() {
  buckets_.fill(0);
  count_ = 0;
}

int Histogram::bucket_of(std::uint64_t value) {
  if (value < kSub) return static_cast<int>(value);
  const int exponent = static_cast<int>(std::bit_width(value)) - 1;  // >= kSubBits
  const std::uint64_t sub = (value >> (exponent - kSubBits)) & (kSub - 1);
  return (exponent - kSubBits + 1) * static_cast<int>(kSub) +
         static_cast<int>(sub);
}

std::uint64_t Histogram::bucket_low(int bucket) {
  const int group = bucket / static_cast<int>(kSub);
  const std::uint64_t sub = static_cast<std::uint64_t>(bucket) & (kSub - 1);
  if (group == 0) return sub;
  const int exponent = group + kSubBits - 1;
  return (std::uint64_t{1} << exponent) | (sub << (exponent - kSubBits));
}

std::uint64_t Histogram::bucket_width(int bucket) {
  const int group = bucket / static_cast<int>(kSub);
  if (group == 0) return 1;
  return std::uint64_t{1} << (group - 1);
}

void Histogram::record(std::uint64_t value) {
  ++buckets_[static_cast<std::size_t>(bucket_of(value))];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

Percentile Histogram::percentile(double q) const {
  Percentile out;
  out.samples = count_;
  if (count_ == 0) return out;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  out.beyond = count_ - rank;
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)];
    if (seen >= rank) {
      const std::uint64_t width = bucket_width(b);
      out.value = static_cast<double>(bucket_low(b)) +
                  (width > 1 ? static_cast<double>(width) / 2.0 : 0.0);
      return out;
    }
  }
  return out;  // unreachable: seen reaches count_ >= rank
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

Percentile median_percentile(const std::vector<Histogram>& slices, double q) {
  Percentile out;
  std::vector<double> values;
  for (const Histogram& h : slices) {
    const Percentile p = h.percentile(q);
    if (values.empty() || p.samples < out.samples) out.samples = p.samples;
    if (values.empty() || p.beyond < out.beyond) out.beyond = p.beyond;
    values.push_back(p.value);
  }
  out.value = median(std::move(values));
  return out;
}

}  // namespace perfbench
