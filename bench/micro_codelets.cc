// The generated codelets in isolation: the cost of each codelet size (the
// leaves every plan bottoms out in), and the cost of strided access for one
// size.
#include <benchmark/benchmark.h>

#include "core/codelet.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace {

using namespace whtlab;

void BM_GeneratedCodelet(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const std::uint64_t m = std::uint64_t{1} << k;
  util::AlignedBuffer x(m);
  util::Rng rng(7);
  for (auto& v : x) v = rng.uniform(-1, 1);
  const auto fn = core::codelet(k);
  for (auto _ : state) {
    fn(x.data(), 1);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * m));  // butterflies
}

BENCHMARK(BM_GeneratedCodelet)->DenseRange(1, core::kMaxUnrolled);

// Strided access cost: the same codelet at unit vs large stride.
void BM_CodeletStride(benchmark::State& state) {
  const int k = 4;
  const auto stride = static_cast<std::ptrdiff_t>(state.range(0));
  util::AlignedBuffer x(static_cast<std::size_t>((16 - 1) * stride + 1));
  x.fill(1.0);
  const auto fn = core::codelet(k);
  for (auto _ : state) {
    fn(x.data(), stride);
    benchmark::DoNotOptimize(x.data());
  }
}

BENCHMARK(BM_CodeletStride)->RangeMultiplier(8)->Range(1, 4096);

}  // namespace

BENCHMARK_MAIN();
