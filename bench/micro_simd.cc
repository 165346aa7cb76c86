// Scalar vs SIMD executor ablation: single-transform throughput by size and
// level, the batch-interleaved execute_many against a per-vector scalar
// loop, and the cache-blocked fused engine against the tree walk.
// Items/sec counts butterfly outputs (size * log2size per transform) so
// sizes and shapes are comparable; a forced-scalar series isolates what
// vectorization buys over the identical tree walk.
//
// Noise convention (1-vCPU hosts): run with --benchmark_repetitions=N and
// --benchmark_report_aggregates_only=true and read the *_median lines —
// google-benchmark (1.7.1 here: --benchmark_min_time takes a bare double)
// aggregates mean/median/stddev across repetitions.  See README's bench
// section.
#include <benchmark/benchmark.h>

#include "api/wht.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "core/schedule.hpp"
#include "simd/cpu_features.hpp"
#include "simd/fused_executor.hpp"
#include "simd/simd_executor.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace {

using namespace whtlab;

core::Plan bench_plan(int n) { return core::Plan::balanced_binary(n, 6); }

void BM_ScalarExecute(benchmark::State& state) {
  const core::Plan plan = bench_plan(static_cast<int>(state.range(0)));
  util::AlignedBuffer x(plan.size());
  util::Rng rng(3);
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    core::execute(plan, x.data());
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(plan.size()) *
                          plan.log2_size());
}

void BM_SimdExecute(benchmark::State& state) {
  const core::Plan plan = bench_plan(static_cast<int>(state.range(0)));
  util::AlignedBuffer x(plan.size());
  util::Rng rng(3);
  for (auto& v : x) v = rng.uniform(-1, 1);
  state.SetLabel(simd::to_string(simd::active_level()));
  for (auto _ : state) {
    simd::execute(plan, x.data());
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(plan.size()) *
                          plan.log2_size());
}

void BM_FusedExecute(benchmark::State& state) {
  const core::Plan plan = bench_plan(static_cast<int>(state.range(0)));
  const core::Schedule schedule =
      core::lower_size(plan.log2_size(), simd::detect_blocking());
  util::AlignedBuffer x(plan.size());
  util::Rng rng(3);
  for (auto& v : x) v = rng.uniform(-1, 1);
  state.SetLabel(simd::to_string(simd::active_level()));
  for (auto _ : state) {
    simd::execute_fused(schedule, x.data());
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(plan.size()) *
                          plan.log2_size());
}

BENCHMARK(BM_ScalarExecute)->DenseRange(8, 20, 2);
BENCHMARK(BM_SimdExecute)->DenseRange(8, 20, 2);
BENCHMARK(BM_FusedExecute)->DenseRange(8, 20, 2);

constexpr std::size_t kBatch = 32;

void BM_ScalarExecuteMany(benchmark::State& state) {
  const core::Plan plan = bench_plan(static_cast<int>(state.range(0)));
  util::AlignedBuffer batch(kBatch * plan.size());
  util::Rng rng(5);
  for (auto& v : batch) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    for (std::size_t v = 0; v < kBatch; ++v) {
      core::execute(plan, batch.data() + v * plan.size());
    }
    benchmark::DoNotOptimize(batch.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch) *
                          static_cast<std::int64_t>(plan.size()) *
                          plan.log2_size());
}

void BM_SimdExecuteMany(benchmark::State& state) {
  const core::Plan plan = bench_plan(static_cast<int>(state.range(0)));
  util::AlignedBuffer batch(kBatch * plan.size());
  util::Rng rng(5);
  for (auto& v : batch) v = rng.uniform(-1, 1);
  state.SetLabel(simd::to_string(simd::active_level()));
  for (auto _ : state) {
    simd::execute_many(plan, batch.data(), kBatch,
                       static_cast<std::ptrdiff_t>(plan.size()));
    benchmark::DoNotOptimize(batch.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch) *
                          static_cast<std::int64_t>(plan.size()) *
                          plan.log2_size());
}

BENCHMARK(BM_ScalarExecuteMany)->DenseRange(8, 16, 2);
BENCHMARK(BM_SimdExecuteMany)->DenseRange(8, 16, 2);

// The façade path users actually hit: Transform::execute_many through the
// registry-created "simd" backend (virtual dispatch + interleave).
void BM_TransformSimdExecuteMany(benchmark::State& state) {
  auto transform = wht::Planner()
                       .fixed(bench_plan(static_cast<int>(state.range(0))))
                       .backend("simd")
                       .plan();
  util::AlignedBuffer batch(kBatch * transform.size());
  util::Rng rng(7);
  for (auto& v : batch) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    transform.execute_many(batch.data(), kBatch);
    benchmark::DoNotOptimize(batch.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch) *
                          static_cast<std::int64_t>(transform.size()) *
                          transform.log2_size());
}

BENCHMARK(BM_TransformSimdExecuteMany)->DenseRange(8, 16, 4);

}  // namespace

BENCHMARK_MAIN();
