#include "core/verify.hpp"

#include <bit>
#include <cmath>
#include <vector>

#include "core/executor.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace whtlab::core {

void dense_wht_apply(int n, const double* x, double* y) {
  const std::uint64_t size = std::uint64_t{1} << n;
  for (std::uint64_t i = 0; i < size; ++i) {
    double acc = 0.0;
    for (std::uint64_t j = 0; j < size; ++j) {
      const bool negative = (std::popcount(i & j) & 1) != 0;
      acc += negative ? -x[j] : x[j];
    }
    y[i] = acc;
  }
}

void fast_wht_reference(int n, double* x) {
  const std::uint64_t size = std::uint64_t{1} << n;
  for (std::uint64_t half = 1; half < size; half <<= 1) {
    for (std::uint64_t base = 0; base < size; base += 2 * half) {
      for (std::uint64_t off = 0; off < half; ++off) {
        const double a = x[base + off];
        const double b = x[base + off + half];
        x[base + off] = a + b;
        x[base + off + half] = a - b;
      }
    }
  }
}

double max_abs_diff(const double* a, const double* b, std::uint64_t count) {
  double worst = 0.0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const double d = std::fabs(a[i] - b[i]);
    if (d > worst) worst = d;
  }
  return worst;
}

double verify_plan(const Plan& plan, std::uint64_t seed) {
  const std::uint64_t size = plan.size();
  util::AlignedBuffer via_plan(size);
  util::AlignedBuffer via_reference(size);
  util::Rng rng(seed);
  for (std::uint64_t i = 0; i < size; ++i) {
    const double v = rng.uniform(-1.0, 1.0);
    via_plan[i] = v;
    via_reference[i] = v;
  }
  execute(plan, via_plan.data());
  fast_wht_reference(plan.log2_size(), via_reference.data());
  return max_abs_diff(via_plan.data(), via_reference.data(), size);
}

}  // namespace whtlab::core
