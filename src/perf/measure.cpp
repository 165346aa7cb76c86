#include "perf/measure.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/executor.hpp"
#include "perf/cycle_timer.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace whtlab::perf {

namespace {

void fill_random(util::AlignedBuffer& buffer, std::uint64_t seed) {
  util::Rng rng(seed);
  for (auto& v : buffer) v = rng.uniform(-1.0, 1.0);
}

/// auto_inner_loop's heuristic, probing on the caller's filled buffer `x`.
int probe_inner_loop(const RunFn& run, double* x) {
  // One probe execution to estimate the per-run cost.
  const std::uint64_t begin = read_cycles();
  run(x);
  const std::uint64_t end = read_cycles();
  const double run_ns = cycles_to_ns(end - begin);
  constexpr double target_ns = 50'000.0;
  if (run_ns >= target_ns) return 1;
  const double batches = target_ns / std::max(run_ns, 1.0);
  return static_cast<int>(std::min(batches, 65536.0)) + 1;
}

}  // namespace

int auto_inner_loop(const RunFn& run, std::uint64_t size) {
  util::AlignedBuffer x(size);
  fill_random(x, 1);
  return probe_inner_loop(run, x.data());
}

int auto_inner_loop(const core::Plan& plan, core::CodeletBackend backend) {
  return auto_inner_loop(
      [&plan, backend](double* x) { core::execute(plan, x, backend); },
      plan.size());
}

MeasureResult measure_run(const RunFn& run, std::uint64_t size,
                          const MeasureOptions& options) {
  if (options.repetitions < 1) {
    throw std::invalid_argument("measure_run: repetitions must be >= 1");
  }
  if (options.warmup < 0) {
    throw std::invalid_argument("measure_run: warmup must be >= 0");
  }
  util::AlignedBuffer master(size);
  util::AlignedBuffer work(size);
  fill_random(master, options.seed);

  // The probe runs on `work` (restored before every later run), so the
  // protocol holds two vector-sized buffers, not three.
  std::memcpy(work.data(), master.data(), size * sizeof(double));
  const int inner = options.inner_loop > 0
                        ? options.inner_loop
                        : probe_inner_loop(run, work.data());

  for (int i = 0; i < options.warmup; ++i) {
    std::memcpy(work.data(), master.data(), size * sizeof(double));
    run(work.data());
  }

  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(options.repetitions));
  for (int rep = 0; rep < options.repetitions; ++rep) {
    std::memcpy(work.data(), master.data(), size * sizeof(double));
    const std::uint64_t begin = read_cycles();
    for (int i = 0; i < inner; ++i) run(work.data());
    const std::uint64_t end = read_cycles();
    samples.push_back(static_cast<double>(end - begin) /
                      static_cast<double>(inner));
  }

  std::sort(samples.begin(), samples.end());
  MeasureResult result;
  result.inner_loop = inner;
  result.min_cycles = samples.front();
  result.median_cycles = samples[samples.size() / 2];
  double total = 0.0;
  for (double s : samples) total += s;
  result.mean_cycles = total / static_cast<double>(samples.size());
  return result;
}

MeasureResult measure_plan(const core::Plan& plan,
                           const MeasureOptions& options) {
  const core::CodeletBackend backend = options.backend;
  return measure_run(
      [&plan, backend](double* x) { core::execute(plan, x, backend); },
      plan.size(), options);
}

}  // namespace whtlab::perf
