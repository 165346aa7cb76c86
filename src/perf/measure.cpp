#include "perf/measure.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/executor.hpp"
#include "perf/cycle_timer.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace whtlab::perf {

namespace {

/// A candidate whose round-one sample exceeds this multiple of the round's
/// best stops being timed (the race of step 4 in measure.hpp).
constexpr double kRaceCutoff = 2.0;

void fill_random(util::AlignedBuffer& buffer, std::uint64_t seed) {
  util::Rng rng(seed);
  for (auto& v : buffer) v = rng.uniform(-1.0, 1.0);
}

/// Step 2's probe: a batch size so one timed unit of `run` takes >= ~50 us,
/// from one execution on the caller's filled buffer `x`.  The probe reads
/// the steady clock, not the cycle counter: converting ticks to time would
/// need a calibrated tick rate.
int probe_inner_loop(const RunFn& run, double* x) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point begin = Clock::now();
  run(x);
  const double run_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - begin).count();
  constexpr double target_ns = 50'000.0;
  if (run_ns >= target_ns) return 1;
  const double batches = target_ns / std::max(run_ns, 1.0);
  return static_cast<int>(std::min(batches, 65536.0)) + 1;
}

MeasureResult summarize(std::vector<double> samples, int inner) {
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

}  // namespace

std::vector<SetResult> measure_set(const std::vector<RunFn>& runs,
                                   std::uint64_t size,
                                   const MeasureOptions& options) {
  if (options.repetitions < 1) {
    throw std::invalid_argument("measure_set: repetitions must be >= 1");
  }
  if (options.warmup < 0) {
    throw std::invalid_argument("measure_set: warmup must be >= 0");
  }
  util::AlignedBuffer master(size);
  util::AlignedBuffer work(size);
  fill_random(master, options.seed);
  const auto restore = [&] {
    std::memcpy(work.data(), master.data(), size * sizeof(double));
  };

  const std::size_t count = runs.size();
  std::vector<SetResult> results(count);
  std::vector<int> inner(count, 1);
  std::vector<std::vector<double>> samples(count);
  std::vector<bool> timed(count, true);
  // Runs one phase of candidate c; a throw drops c from the set.
  const auto attempt = [&](std::size_t c, const auto& phase) {
    try {
      phase();
    } catch (...) {
      results[c].error = std::current_exception();
      timed[c] = false;
    }
  };

  // The probe runs on `work` too, so the set holds two vector-sized
  // buffers, not three.
  for (std::size_t c = 0; c < count; ++c) {
    attempt(c, [&] {
      restore();
      inner[c] = options.inner_loop > 0
                     ? options.inner_loop
                     : probe_inner_loop(runs[c], work.data());
      for (int i = 0; i < options.warmup; ++i) {
        restore();
        runs[c](work.data());
      }
    });
  }

  for (int rep = 0; rep < options.repetitions; ++rep) {
    for (std::size_t c = 0; c < count; ++c) {
      if (!timed[c]) continue;
      attempt(c, [&] {
        restore();
        const std::uint64_t begin = read_cycles();
        for (int i = 0; i < inner[c]; ++i) runs[c](work.data());
        const std::uint64_t end = read_cycles();
        samples[c].push_back(static_cast<double>(end - begin) /
                             static_cast<double>(inner[c]));
      });
    }
    if (rep != 0) continue;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < count; ++c) {
      if (timed[c]) best = std::min(best, samples[c].front());
    }
    for (std::size_t c = 0; c < count; ++c) {
      if (timed[c] && samples[c].front() > kRaceCutoff * best) timed[c] = false;
    }
  }

  for (std::size_t c = 0; c < count; ++c) {
    if (!results[c].error) {
      results[c].result = summarize(std::move(samples[c]), inner[c]);
    }
  }
  return results;
}

MeasureResult measure_run(const RunFn& run, std::uint64_t size,
                          const MeasureOptions& options) {
  SetResult only = std::move(measure_set({run}, size, options).front());
  if (only.error) std::rethrow_exception(only.error);
  return only.result;
}

MeasureResult measure_plan(const core::Plan& plan,
                           const MeasureOptions& options) {
  return measure_run([&plan](double* x) { core::execute(plan, x); },
                     plan.size(), options);
}

}  // namespace whtlab::perf
