#include "perf/measure.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

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

TEST(CycleTimer, RatePlausible) {
  // Any machine this runs on ticks between 100 MHz and 10 GHz.
  const double rate = cycles_per_second();
  EXPECT_GT(rate, 1e8);
  EXPECT_LT(rate, 1e10);
}

TEST(CycleTimer, ConversionConsistent) {
  EXPECT_NEAR(cycles_to_ns(static_cast<std::uint64_t>(cycles_per_second())),
              1e9, 1e6);
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
  EXPECT_GT(auto_inner_loop(core::Plan::small(2), core::CodeletBackend::kGenerated),
            8);
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
