#include "perf/measure.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/executor.hpp"
#include "core/plan.hpp"
#include "perf/cycle_timer.hpp"
#include "perf/events.hpp"

namespace whtlab::perf {
namespace {

TEST(CycleTimer, Monotonic) {
  const std::uint64_t a = read_cycles();
  const std::uint64_t b = read_cycles();
  EXPECT_LE(a, b);
}

TEST(Measure, ReturnsOrderedSummary) {
  const auto result = measure_plan(core::Plan::iterative(8));
  EXPECT_GT(result.min_cycles, 0.0);
  EXPECT_LE(result.min_cycles, result.median_cycles);
  EXPECT_LE(result.min_cycles, result.mean_cycles);
  EXPECT_GE(result.inner_loop, 1);
  EXPECT_DOUBLE_EQ(result.cycles(), result.median_cycles);
}

TEST(Measure, LargerTransformsTakeLonger) {
  MeasureOptions options;
  options.repetitions = 5;
  const double small = measure_plan(core::Plan::iterative(6), options).cycles();
  const double large = measure_plan(core::Plan::iterative(14), options).cycles();
  EXPECT_GT(large, 4 * small);  // 256x the work; demand at least 4x the time
}

TEST(Measure, ExplicitInnerLoopIsHonored) {
  MeasureOptions options;
  options.inner_loop = 3;
  const auto result = measure_plan(core::Plan::small(4), options);
  EXPECT_EQ(result.inner_loop, 3);
}

TEST(Measure, AutoInnerLoopBatchesTinyTransforms) {
  MeasureOptions options;
  options.repetitions = 1;  // inner_loop stays 0: the probe sizes the batch
  EXPECT_GT(measure_plan(core::Plan::small(2), options).inner_loop, 8);
}

TEST(MeasureRun, TimesAnArbitraryEngine) {
  // The engine-agnostic protocol core: invocation count must be exactly
  // probe + warmup + repetitions * inner_loop, and the summary ordered.
  MeasureOptions options;
  options.warmup = 2;
  options.repetitions = 3;
  options.inner_loop = 0;  // auto: one probe run sizes the batch
  int invocations = 0;
  const auto result = measure_run(
      [&invocations](double* x) {
        ++invocations;
        x[0] += 1.0;  // touch the buffer so the engine is not optimized out
      },
      16, options);
  EXPECT_EQ(invocations, 1 + options.warmup + options.repetitions * result.inner_loop);
  EXPECT_GT(result.min_cycles, 0.0);
  EXPECT_LE(result.min_cycles, result.median_cycles);
  EXPECT_LE(result.min_cycles, result.mean_cycles);
}

TEST(MeasureRun, ProbeWarmupAndRepsShareOneBuffer) {
  // The auto probe runs on the work buffer the reps use, so the protocol
  // holds no third vector-sized buffer of its own.
  MeasureOptions options;
  options.warmup = 2;
  options.repetitions = 3;
  options.inner_loop = 0;
  std::set<const double*> buffers;
  int invocations = 0;
  const auto result = measure_run(
      [&buffers, &invocations](double* x) {
        buffers.insert(x);
        ++invocations;
      },
      1u << 12, options);
  EXPECT_EQ(invocations, 1 + options.warmup + options.repetitions * result.inner_loop);
  EXPECT_EQ(buffers.size(), 1u);
}

TEST(MeasureRun, ExplicitInnerLoopSkipsProbe) {
  MeasureOptions options;
  options.warmup = 0;
  options.repetitions = 2;
  options.inner_loop = 5;
  int invocations = 0;
  const auto result =
      measure_run([&invocations](double*) { ++invocations; }, 8, options);
  EXPECT_EQ(result.inner_loop, 5);
  EXPECT_EQ(invocations, 10);
}

TEST(MeasureRun, RejectsBadProtocolOptions) {
  MeasureOptions options;
  options.repetitions = 0;
  EXPECT_THROW(measure_run([](double*) {}, 8, options), std::invalid_argument);
  options.repetitions = 1;
  options.warmup = -1;
  EXPECT_THROW(measure_run([](double*) {}, 8, options), std::invalid_argument);
}

TEST(MeasureRun, MeasurePlanIsAThinWrapper) {
  // measure_plan must agree with measure_run driving core::execute — same
  // protocol, same options, statistically indistinguishable cycles (assert
  // only that both produce sane summaries for the same work).
  const core::Plan plan = core::Plan::iterative(8);
  MeasureOptions options;
  options.repetitions = 3;
  options.inner_loop = 4;
  const auto direct = measure_plan(plan, options);
  const auto via_run = measure_run(
      [&plan](double* x) { core::execute(plan, x); }, plan.size(), options);
  EXPECT_EQ(direct.inner_loop, via_run.inner_loop);
  EXPECT_GT(direct.min_cycles, 0.0);
  EXPECT_GT(via_run.min_cycles, 0.0);
}

/// A RunFn that busy-waits `spin_us` on the wall clock (so its cost is a
/// knob, not a property of the host) and counts its executions and the
/// buffers it ran on.
RunFn spinner(std::uint64_t spin_us, int* invocations,
              std::set<const double*>* buffers) {
  return [spin_us, invocations, buffers](double* x) {
    ++*invocations;
    buffers->insert(x);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(spin_us);
    while (std::chrono::steady_clock::now() < deadline) {
    }
  };
}

TEST(MeasureSet, RacesOutACandidateFarBehindAfterRoundOne) {
  // 10 us against 1 ms: after round one the slow candidate is 100x the
  // best, far past the 2x cutoff, so it is timed exactly once and priced
  // at that sample; the fast one runs the whole protocol.
  MeasureOptions options;
  options.warmup = 2;
  options.repetitions = 3;
  int fast = 0, slow = 0;
  std::set<const double*> buffers;
  const auto results = measure_set(
      {spinner(10, &fast, &buffers), spinner(1000, &slow, &buffers)}, 1u << 10,
      options);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_FALSE(results[0].error);
  ASSERT_FALSE(results[1].error);
  const MeasureResult& f = results[0].result;
  const MeasureResult& s = results[1].result;
  EXPECT_EQ(fast, 1 + options.warmup + options.repetitions * f.inner_loop);
  EXPECT_EQ(s.inner_loop, 1) << "a 1 ms run is one timed unit";
  EXPECT_EQ(slow, 1 + options.warmup + 1);
  EXPECT_EQ(s.min_cycles, s.median_cycles);
  EXPECT_EQ(s.mean_cycles, s.median_cycles);
  EXPECT_GT(s.cycles(), 2 * f.cycles());
  EXPECT_EQ(buffers.size(), 1u) << "one work buffer serves the whole set";
}

TEST(MeasureSet, TimedRoundsGoRoundRobin) {
  // With an explicit inner loop there is no probe: each candidate's warmup
  // runs, then one timed round visits every candidate in order.
  MeasureOptions options;
  options.warmup = 1;
  options.repetitions = 1;
  options.inner_loop = 1;
  std::vector<int> order;
  std::vector<RunFn> runs;
  for (int c = 0; c < 3; ++c) {
    runs.push_back([&order, c](double*) { order.push_back(c); });
  }
  measure_set(runs, 8, options);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(MeasureSet, AThrowingCandidateLeavesTheOthersTimed) {
  MeasureOptions options;
  options.warmup = 1;
  options.repetitions = 3;
  options.inner_loop = 2;
  int calls = 0, good = 0;
  std::set<const double*> buffers;
  const auto results = measure_set(
      {[&calls](double*) {
         if (++calls == 2) throw std::runtime_error("backend went away");
       },
       spinner(5, &good, &buffers)},
      8, options);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].error);
  EXPECT_THROW(std::rethrow_exception(results[0].error), std::runtime_error);
  EXPECT_EQ(calls, 2) << "the set stops running a candidate that threw";
  EXPECT_FALSE(results[1].error);
  EXPECT_EQ(good, options.warmup + options.repetitions * options.inner_loop);
  EXPECT_GT(results[1].result.cycles(), 0.0);
}

TEST(MeasureRun, RethrowsWhatTheRunThrew) {
  MeasureOptions options;
  options.inner_loop = 1;
  EXPECT_THROW(measure_run([](double*) { throw std::runtime_error("x"); }, 8,
                           options),
               std::runtime_error);
}

TEST(Measure, DeterministicCountsAreStableAcrossCalls) {
  EventConfig config;
  config.collect_cycles = false;  // only deterministic parts
  const auto a = collect_events(core::Plan::right_recursive(12), config);
  const auto b = collect_events(core::Plan::right_recursive(12), config);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.l1_misses, b.l1_misses);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.ops, b.ops);
}

TEST(Events, TripleIsConsistent) {
  EventConfig config;
  config.measure.repetitions = 3;
  const auto events = collect_events(core::Plan::iterative(10), config);
  EXPECT_GT(events.cycles, 0.0);
  EXPECT_GT(events.instructions, 0.0);
  // 2^10 doubles fit L1: compulsory misses only.
  EXPECT_EQ(events.l1_misses, (1u << 10) / 8);
  EXPECT_EQ(events.ops.flops, 10u << 10);
}

TEST(Events, MissCollectionCanBeDisabled) {
  EventConfig config;
  config.collect_cycles = false;
  config.collect_misses = false;
  const auto events = collect_events(core::Plan::iterative(8), config);
  EXPECT_EQ(events.l1_misses, 0u);
  EXPECT_EQ(events.cycles, 0.0);
  EXPECT_GT(events.instructions, 0.0);
}

}  // namespace
}  // namespace whtlab::perf
