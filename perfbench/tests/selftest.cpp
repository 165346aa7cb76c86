// The benchmark's own tests: percentiles and the ten-beyond rule, the
// verify helper, and span self-time arithmetic.  Run through
// `python3 perfbench/run.py --selftest`, which also checks the metric and
// workload names.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "api/wht.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "verify.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using perfbench::Histogram;
using perfbench::Percentile;
using perfbench::Span;

void test_exact_percentiles() {
  Histogram h;
  for (std::uint64_t v = 0; v < 100; ++v) h.record(v);  // exact below 128
  const Percentile p50 = h.percentile(0.50);
  CHECK(p50.value == 49.0);
  CHECK(p50.samples == 100);
  CHECK(p50.beyond == 50);
  CHECK(p50.supported());
  const Percentile p99 = h.percentile(0.99);
  CHECK(p99.value == 98.0);
  CHECK(p99.beyond == 1);
  CHECK(!p99.supported());  // only one sample beyond it
  const Percentile p90 = h.percentile(0.90);
  CHECK(p90.beyond == 10);
  CHECK(p90.supported());  // exactly ten beyond
  CHECK(!h.percentile(0.91).supported());
}

void test_log_linear_error() {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v * 1000);
  const Percentile p99 = h.percentile(0.99);
  CHECK(p99.beyond == 10);
  CHECK(p99.supported());
  CHECK(std::fabs(p99.value - 990000.0) / 990000.0 <= 0.01);
  const Percentile p50 = h.percentile(0.50);
  CHECK(std::fabs(p50.value - 500000.0) / 500000.0 <= 0.01);
  // Every value lies in a bucket whose midpoint is within 1% of it.
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40);
       v = v * 3 / 2 + 1) {
    const int b = Histogram::bucket_of(v);
    const std::uint64_t low = Histogram::bucket_low(b);
    const std::uint64_t width = Histogram::bucket_width(b);
    CHECK(low <= v && v < low + width);
    const double mid = static_cast<double>(low) +
                       (width > 1 ? static_cast<double>(width) / 2.0 : 0.0);
    CHECK(std::fabs(mid - static_cast<double>(v)) / static_cast<double>(v) <=
          0.01);
  }
  CHECK(Histogram::bucket_of(~std::uint64_t{0}) < Histogram::kBuckets);
  Histogram merged;
  merged.merge(h);
  merged.merge(h);
  CHECK(merged.count() == 2000);
}

void test_median() {
  CHECK(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5);
  CHECK(perfbench::median({}) == 0.0);

  // Three slices: the median slice sets the value, the thinnest slice sets
  // the support.
  std::vector<Histogram> slices(3);
  for (std::uint64_t v = 0; v < 100; ++v) {
    slices[0].record(v);
    slices[1].record(v + 10);
    if (v < 50) slices[2].record(v + 20);
  }
  const Percentile p = perfbench::median_percentile(slices, 0.5);
  CHECK(p.value == 49.0);  // slice values 49, 59, 44
  CHECK(p.samples == 50);
  CHECK(p.beyond == 25);
  CHECK(!perfbench::median_percentile(slices, 0.9).supported());
}

void test_verify() {
  const int n = 10;
  const auto expected = perfbench::make_expected(7, 3, n);
  for (const double x : expected->input) {
    CHECK(x >= -4.0 && x <= 4.0 && x == std::floor(x));
  }
  std::vector<double> data(std::size_t{1} << n);
  perfbench::Vectors vectors({expected}, data.data());
  const wht::Transform t = wht::Planner().backend("simd").plan(n);

  // Two clean transforms: spectrum, then (after the exact rescale) input.
  t.execute(data.data());
  CHECK(vectors.check());
  t.execute(data.data());
  CHECK(vectors.check());
  CHECK(std::memcmp(data.data(), expected->input.data(),
                    data.size() * sizeof(double)) == 0);

  // One flipped bit in the spectrum is caught, and the buffer is reset.
  t.execute(data.data());
  std::uint64_t bits = 0;
  std::memcpy(&bits, &data[17], sizeof(bits));
  bits ^= 1;
  std::memcpy(&data[17], &bits, sizeof(bits));
  CHECK(!vectors.check());
  CHECK(std::memcmp(data.data(), expected->input.data(),
                    data.size() * sizeof(double)) == 0);

  // A NaN after the second transform is caught too.
  t.execute(data.data());
  CHECK(vectors.check());
  t.execute(data.data());
  data[5] = std::numeric_limits<double>::quiet_NaN();
  CHECK(!vectors.check());

  // The same seed and stream give the same input; another seed does not.
  CHECK(perfbench::make_input(7, 3, n) == expected->input);
  CHECK(perfbench::make_input(8, 3, n) != expected->input);
}

void test_self_time() {
  // root [0, 100) with children a [10, 40) and b [30, 60) overlapping, and
  // a grandchild under a at [15, 20).
  const std::vector<Span> spans = {
      {"bench.request", -1, 1, 0, 100},
      {"engine.submit", 0, 1, 10, 40},
      {"engine.submit", 0, 1, 30, 60},
      {"core.execute", 1, 1, 15, 20},
  };
  const std::vector<std::uint64_t> self = perfbench::self_times(spans);
  CHECK(self[0] == 50);  // 100 minus the union [10, 60)
  CHECK(self[1] == 25);
  CHECK(self[2] == 30);
  CHECK(self[3] == 5);
  const auto layers = perfbench::layer_self_ns(spans);
  CHECK(layers.at("bench") == 50);
  CHECK(layers.at("engine") == 55);
  CHECK(layers.at("core") == 5);

  // A child reaching past its parent only counts inside the parent.
  CHECK(perfbench::covered_ns({{5, 50}, {40, 200}}, 10, 100) == 90);
  CHECK(perfbench::covered_ns({}, 0, 10) == 0);

  // A full table counts drops instead of growing.
  perfbench::Tracer tracer(2);
  const int a = tracer.begin("bench.request", -1, 1);
  const int b = tracer.begin("ipc.submit", a, 1);
  const int c = tracer.begin("ipc.wait", a, 1);
  tracer.end(c);
  tracer.end(b);
  tracer.end(a);
  CHECK(c == -1);
  CHECK(tracer.spans().size() == 2);
  CHECK(tracer.dropped() == 1);
}

}  // namespace

int main() {
  test_exact_percentiles();
  test_log_linear_error();
  test_median();
  test_verify();
  test_self_time();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
