// Exhaustive parity of the fused-schedule engine against the scalar
// interpreter: every size up to 2^20, several plan shapes per size (the
// engine must be plan-oblivious), in-place / strided / out-of-place /
// batched paths, at every SIMD level this host can dispatch to.  Equality
// is bitwise (ASSERT_EQ on doubles): the fused passes retire the same
// butterflies in the same stage order, so there is no tolerance to hide a
// blocking or indexing bug behind.  The whole suite also runs under the CI
// ASan/UBSan job, which is what catches tile overruns, and the FusedThreads
// suite under the TSan job, which is what checks the split's counters.
#include "simd/fused_executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/wht.hpp"
#include "api/wisdom.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "core/schedule.hpp"
#include "simd/cpu_features.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace whtlab::simd {
namespace {

std::vector<SimdLevel> dispatchable_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (detected_level() >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  if (detected_level() >= SimdLevel::kAvx512) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

/// Plan shapes the one schedule of each size must match bit for bit.
std::vector<core::Plan> plan_shapes(int n) {
  std::vector<core::Plan> plans;
  plans.push_back(core::Plan::right_recursive(n));
  plans.push_back(core::Plan::iterative(n));
  plans.push_back(core::Plan::balanced_binary(n, 4));
  if (n > core::kMaxUnrolled) {
    plans.push_back(core::Plan::iterative_radix(n, core::kMaxUnrolled));
  }
  return plans;
}

class ForcedLevel {
 public:
  explicit ForcedLevel(SimdLevel level) { force_level(level); }
  ~ForcedLevel() { reset_forced_level(); }
};

/// An explicit geometry and a size at which its schedule has at least two
/// top-level rounds, so execute_fused with threads > 1 splits the vector.
struct SplitCase {
  core::BlockingConfig config;
  int n;
};

/// Together these hit every kind of chunk the split cuts: ranges of whole
/// blocks (even and uneven), column ranges of one block and of several,
/// column ranges capped by few column groups, multi-pass L2 rounds, a chain
/// of radix-2 streaming rounds, and a radix-2^7 streaming pass (the
/// kernels' generic column loop).
std::vector<SplitCase> split_cases() {
  return {
      {{3, 2, 5, 8, 2}, 12},  // 16 L2 blocks, then 4-block and 1-block passes
      {{4, 3, 6, 9, 3}, 14},
      {{3, 1, 4, 6, 1}, 10},  // four radix-2 streaming rounds
      {{3, 1, 3, 4, 1}, 6},   // 2 and 4 column groups per block at width 8
      {{3, 3, 5, 7, 7}, 14},  // one radix-2^7 streaming pass
  };
}

/// The 2^n-point WHT of `input` through the scalar tree executor.
std::vector<double> serial_reference(const std::vector<double>& input) {
  std::vector<double> out = input;
  const int n = static_cast<int>(std::bit_width(input.size())) - 1;
  core::execute(core::Plan::right_recursive(n), out.data());
  return out;
}

/// Runs `schedule` on a copy of `input` at `threads` and asserts the result
/// equals `expect` bit for bit.
void expect_split_matches(const core::Schedule& schedule,
                          const std::vector<double>& input,
                          const std::vector<double>& expect, SimdLevel level,
                          int threads, const std::string& label) {
  util::AlignedBuffer x(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) x[i] = input[i];
  execute_fused(schedule, x.data(), 1, level, threads);
  for (std::size_t i = 0; i < input.size(); ++i) {
    ASSERT_EQ(x[i], expect[i]) << label << " level=" << to_string(level)
                               << " threads=" << threads << " i=" << i;
  }
}

class FusedParityTest : public ::testing::TestWithParam<SimdLevel> {};

TEST_P(FusedParityTest, AllSizesAllShapesUnitStride) {
  const SimdLevel level = GetParam();
  for (int n = 1; n <= 20; ++n) {
    for (const core::Plan& plan : plan_shapes(n)) {
      const core::Schedule schedule =
          core::lower_size(plan.log2_size(), detect_blocking());
      util::AlignedBuffer x(plan.size());
      util::AlignedBuffer reference(plan.size());
      util::Rng rng(static_cast<std::uint64_t>(n) * 211 + 9);
      for (std::uint64_t i = 0; i < plan.size(); ++i) {
        x[i] = reference[i] = rng.uniform(-1, 1);
      }
      execute_fused(schedule, x.data(), 1, level);
      core::execute(plan, reference.data());
      for (std::uint64_t i = 0; i < plan.size(); ++i) {
        ASSERT_EQ(x[i], reference[i])
            << "level=" << to_string(level) << " n=" << n
            << " plan=" << plan.to_string() << " i=" << i;
      }
    }
  }
}

TEST_P(FusedParityTest, BlockGeometrySweep) {
  // Non-default blockings exercise every vector path boundary: nested and
  // single-round schedules, radix-1..3 top passes, unit passes at and below
  // the vector width (the latter must fall back scalar, not crash).
  const SimdLevel level = GetParam();
  const std::vector<core::BlockingConfig> configs = {
      {8, 3, 11, 17}, {4, 3, 6, 9}, {8, 1, 10, 12}, {2, 2, 2, 4}, {3, 2, 5, 16}};
  for (int n : {6, 10, 13, 18}) {
    const core::Plan plan = core::Plan::balanced_binary(n, 4);
    for (const core::BlockingConfig& config : configs) {
      const core::Schedule schedule = core::lower_size(n, config);
      util::AlignedBuffer x(plan.size());
      util::AlignedBuffer reference(plan.size());
      util::Rng rng(static_cast<std::uint64_t>(n) * 83 + 3);
      for (std::uint64_t i = 0; i < plan.size(); ++i) {
        x[i] = reference[i] = rng.uniform(-1, 1);
      }
      execute_fused(schedule, x.data(), 1, level);
      core::execute(plan, reference.data());
      for (std::uint64_t i = 0; i < plan.size(); ++i) {
        ASSERT_EQ(x[i], reference[i])
            << "level=" << to_string(level) << " n=" << n
            << " unit=" << config.unit_log2 << " l1=" << config.l1_block_log2
            << " l2=" << config.l2_block_log2 << " i=" << i;
      }
    }
  }
}

TEST_P(FusedParityTest, StridedFallsBackAndKeepsGapsUntouched) {
  const SimdLevel level = GetParam();
  for (int n : {4, 9, 12}) {
    for (const std::ptrdiff_t stride : {2, 3, 7}) {
      const core::Plan plan = core::Plan::balanced_binary(n, 4);
      const core::Schedule schedule =
          core::lower_size(plan.log2_size(), detect_blocking());
      const std::uint64_t size = plan.size();
      util::AlignedBuffer strided(size * static_cast<std::uint64_t>(stride));
      util::AlignedBuffer dense(size);
      util::Rng rng(static_cast<std::uint64_t>(n) * 29 + 11);
      strided.fill(-9.0);
      for (std::uint64_t i = 0; i < size; ++i) {
        const double v = rng.uniform(-1, 1);
        strided[i * static_cast<std::uint64_t>(stride)] = v;
        dense[i] = v;
      }
      execute_fused(schedule, strided.data(), stride, level);
      core::execute(plan, dense.data());
      for (std::uint64_t i = 0; i < size; ++i) {
        ASSERT_EQ(strided[i * static_cast<std::uint64_t>(stride)], dense[i])
            << "level=" << to_string(level) << " n=" << n
            << " stride=" << stride << " i=" << i;
      }
      for (std::uint64_t i = 0; i + 1 < size; ++i) {
        for (std::ptrdiff_t off = 1; off < stride; ++off) {
          ASSERT_EQ(strided[i * static_cast<std::uint64_t>(stride) +
                            static_cast<std::uint64_t>(off)],
                    -9.0)
              << "sentinel clobbered at i=" << i << " off=" << off;
        }
      }
    }
  }
}

TEST_P(FusedParityTest, SplitMatchesSerialOnMultiRoundSchedules) {
  const SimdLevel level = GetParam();
  for (const SplitCase& c : split_cases()) {
    const core::Schedule schedule = core::lower_size(c.n, c.config);
    ASSERT_GE(core::sweep_count(schedule), 2);
    const std::vector<double> input = util::random_vector(
        std::uint64_t{1} << c.n, static_cast<std::uint64_t>(c.n));
    const std::vector<double> expect = serial_reference(input);
    const std::string label =
        "n=" + std::to_string(c.n) + " l1=" +
        std::to_string(c.config.l1_block_log2) +
        " l2=" + std::to_string(c.config.l2_block_log2) +
        " stream=" + std::to_string(c.config.stream_radix_log2);
    for (int threads : {2, 3, 4}) {
      expect_split_matches(schedule, input, expect, level, threads, label);
    }
  }
}

TEST_P(FusedParityTest, SplitMatchesSerialAtProbedBlocking) {
  const SimdLevel level = GetParam();
  for (int n : {18, 20, 21}) {
    const core::Schedule schedule = core::lower_size(n, detect_blocking());
    const std::vector<double> input = util::random_vector(
        std::uint64_t{1} << n, static_cast<std::uint64_t>(n) + 7);
    const std::vector<double> expect = serial_reference(input);
    for (int threads : {2, 3, 4}) {
      expect_split_matches(schedule, input, expect, level, threads,
                           "probed n=" + std::to_string(n));
    }
  }
}

TEST_P(FusedParityTest, SplitStridedFallsBackAndKeepsGapsUntouched) {
  const SimdLevel level = GetParam();
  const SplitCase c = split_cases().front();
  const core::Schedule schedule = core::lower_size(c.n, c.config);
  const std::uint64_t size = std::uint64_t{1} << c.n;
  const std::vector<double> input = util::random_vector(size, 61);
  const std::vector<double> expect = serial_reference(input);
  util::AlignedBuffer strided(2 * size);
  strided.fill(-9.0);
  for (std::uint64_t i = 0; i < size; ++i) strided[2 * i] = input[i];
  execute_fused(schedule, strided.data(), 2, level, 3);
  for (std::uint64_t i = 0; i < size; ++i) {
    ASSERT_EQ(strided[2 * i], expect[i]) << "i=" << i;
    ASSERT_EQ(strided[2 * i + 1], -9.0) << "gap clobbered at i=" << i;
  }
}

TEST_P(FusedParityTest, ExecuteManyBatchesWithPadding) {
  const SimdLevel level = GetParam();
  const ForcedLevel forced(level);
  for (int n : {1, 6, 11}) {
    const core::Plan plan = core::Plan::balanced_binary(n, 4);
    const core::Schedule schedule =
        core::lower_size(plan.log2_size(), detect_blocking());
    const std::uint64_t size = plan.size();
    for (std::size_t count : {std::size_t{1}, std::size_t{5}, std::size_t{12}}) {
      for (const std::uint64_t pad : {std::uint64_t{0}, std::uint64_t{3}}) {
        const std::uint64_t dist = size + pad;
        util::AlignedBuffer work(count * dist);
        std::vector<double> reference(count * dist, -4.0);
        util::Rng rng(static_cast<std::uint64_t>(n) * 500 + count);
        work.fill(-4.0);
        for (std::size_t v = 0; v < count; ++v) {
          for (std::uint64_t i = 0; i < size; ++i) {
            work[v * dist + i] = reference[v * dist + i] = rng.uniform(-1, 1);
          }
        }
        for (int threads : {1, 3}) {
          util::AlignedBuffer batch(count * dist);
          for (std::uint64_t i = 0; i < count * dist; ++i) batch[i] = work[i];
          execute_fused_many(schedule, batch.data(), count,
                             static_cast<std::ptrdiff_t>(dist), threads);
          for (std::size_t v = 0; v < count; ++v) {
            std::vector<double> expect(reference.begin() + v * dist,
                                       reference.begin() + v * dist + size);
            core::execute(plan, expect.data());
            for (std::uint64_t i = 0; i < size; ++i) {
              ASSERT_EQ(batch[v * dist + i], expect[i])
                  << "level=" << to_string(level) << " n=" << n
                  << " count=" << count << " pad=" << pad
                  << " threads=" << threads << " v=" << v << " i=" << i;
            }
            for (std::uint64_t i = size; i < dist; ++i) {
              ASSERT_EQ(batch[v * dist + i], -4.0) << "pad clobbered";
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DispatchableLevels, FusedParityTest,
                         ::testing::ValuesIn(dispatchable_levels()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(FusedBackendFacade, RegisteredAndPlanOblivious) {
  auto& registry = api::BackendRegistry::global();
  ASSERT_TRUE(registry.contains("fused"));

  // Two fixed plans of one size must produce identical results through the
  // façade — the backend lowers both to the same schedule.
  auto a = api::Planner().fixed(core::Plan::iterative(12)).backend("fused").plan();
  auto b = api::Planner()
               .fixed(core::Plan::balanced_binary(12, 4))
               .backend("fused")
               .plan();
  EXPECT_EQ(a.backend_name(), "fused");
  std::vector<double> in(a.size());
  util::Rng rng(31);
  for (auto& v : in) v = rng.uniform(-1, 1);
  EXPECT_EQ(a.apply(in), b.apply(in));

  auto scalar = api::Planner().fixed(core::Plan::iterative(12)).plan();
  EXPECT_EQ(a.apply(in), scalar.apply(in));
}

TEST(FusedBackendFacade, ExecuteCopyMatchesGenerated) {
  auto fused_t = api::Planner().backend("fused").plan(13);
  auto scalar_t = api::Planner().fixed(fused_t.plan()).plan();
  std::vector<double> in(fused_t.size());
  util::Rng rng(41);
  for (auto& v : in) v = rng.uniform(-1, 1);
  std::vector<double> out_fused(fused_t.size());
  std::vector<double> out_scalar(fused_t.size());
  fused_t.execute_copy(in.data(), out_fused.data());
  scalar_t.execute_copy(in.data(), out_scalar.data());
  EXPECT_EQ(out_fused, out_scalar);
}

TEST(FusedBackendFacade, TwoThreadSingleAtTwentyMatchesGenerated) {
  auto fused_t = api::Planner().backend("fused").threads(2).plan(20);
  auto scalar_t = api::Planner().fixed(fused_t.plan()).plan();
  ASSERT_EQ(fused_t.backend_name(), "fused");
  const std::vector<double> in = util::random_vector(fused_t.size(), 43);
  std::vector<double> fused_x = in;
  std::vector<double> scalar_x = in;
  fused_t.execute(fused_x.data());
  scalar_t.execute(scalar_x.data());
  EXPECT_EQ(fused_x, scalar_x);
  std::vector<double> out_fused(fused_t.size());
  std::vector<double> out_scalar(fused_t.size());
  fused_t.execute_copy(in.data(), out_fused.data());
  scalar_t.execute_copy(in.data(), out_scalar.data());
  EXPECT_EQ(out_fused, out_scalar);
}

TEST(FusedBackendFacade, EveryStrategyPlansNothing) {
  // Every plan of one size runs one schedule, so no strategy searches: each
  // returns the iterative plan without a single evaluation.
  for (const api::Strategy strategy :
       {api::Strategy::kEstimate, api::Strategy::kMeasure,
        api::Strategy::kSampled}) {
    for (const int n : {1, 9, 18}) {
      const auto t = api::Planner().backend("fused").strategy(strategy).plan(n);
      const std::string label =
          std::string(api::to_string(strategy)) + " n=" + std::to_string(n);
      EXPECT_EQ(t.plan(), core::Plan::iterative(n))
          << label << " planned " << t.plan().to_string();
      EXPECT_EQ(t.planning().evaluations, 0u) << label;
      EXPECT_EQ(t.planning().cost, 0.0) << label;
      EXPECT_FALSE(t.planning().from_wisdom) << label;
      EXPECT_EQ(t.planning().strategy, strategy) << label;
    }
  }
  // kFixed keeps the caller's plan verbatim.
  const core::Plan pinned = core::Plan::balanced_binary(12, 4);
  EXPECT_EQ(api::Planner().backend("fused").fixed(pinned).plan().plan(),
            pinned);
}

TEST(FusedBackendFacade, PlanningRecordsNoWisdom) {
  const std::string path = ::testing::TempDir() + "fused_plans_no_wisdom.txt";
  std::remove(path.c_str());
  for (const api::Strategy strategy :
       {api::Strategy::kEstimate, api::Strategy::kSampled}) {
    const auto t = api::Planner()
                       .backend("fused")
                       .strategy(strategy)
                       .wisdom_file(path)
                       .plan(10);
    EXPECT_FALSE(t.planning().from_wisdom);
  }
  // A searched backend on the same file still records its winner.
  api::Planner().backend("simd").wisdom_file(path).plan(10);
  const std::vector<api::Wisdom::Key> keys = api::Wisdom::load(path).keys();
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys.front().backend, "simd");
  std::remove(path.c_str());
}

TEST(FusedBackendFacade, RejectsPlansTooLargeToAddress) {
  // Schedules live in one slot per log2 size; a 2^64-point plan has none
  // and must be refused before any slot or element is touched.
  const auto backend = api::BackendRegistry::global().create("fused");
  const core::Plan plan = core::Plan::split(
      std::vector<core::Plan>(8, core::Plan::small(core::kMaxUnrolled)));
  ASSERT_EQ(plan.log2_size(), 64);
  double x = 0.0;
  EXPECT_THROW(backend->run(plan, &x, 1), std::invalid_argument);
  EXPECT_THROW(backend->run_many(plan, &x, 1, 1), std::invalid_argument);
}

TEST(FusedBackendFacade, ThreadsFanOutBatchChunks) {
  api::BackendOptions options;
  options.threads = 4;
  auto backend = api::BackendRegistry::global().create("fused", options);
  const core::Plan plan = core::Plan::balanced_binary(9, 4);
  const std::size_t count = 21;
  std::vector<double> batch(count * plan.size());
  util::Rng rng(53);
  for (auto& v : batch) v = rng.uniform(-1, 1);
  std::vector<double> reference = batch;
  backend->run_many(plan, batch.data(), count,
                    static_cast<std::ptrdiff_t>(plan.size()));
  for (std::size_t v = 0; v < count; ++v) {
    core::execute(plan, reference.data() + v * plan.size());
  }
  EXPECT_EQ(batch, reference);
}

// Four callers share one multi-round schedule, each splitting its own
// vector over 2 threads: the claim and done counters of concurrent splits
// must neither race nor leak across calls (the CI TSan job runs this).
TEST(FusedThreads, ConcurrentCallersEachSplitOneSharedSchedule) {
  const core::Schedule schedule = core::lower_size(16, {3, 3, 6, 10, 2});
  ASSERT_GE(core::sweep_count(schedule), 2);
  const SimdLevel level = active_level();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      const std::vector<double> input = util::random_vector(
          std::uint64_t{1} << 16, static_cast<std::uint64_t>(c));
      const std::vector<double> expect = serial_reference(input);
      util::AlignedBuffer x(input.size());
      for (int rep = 0; rep < 20; ++rep) {
        for (std::size_t i = 0; i < input.size(); ++i) x[i] = input[i];
        execute_fused(schedule, x.data(), 1, level, 2);
        for (std::size_t i = 0; i < input.size(); ++i) {
          if (x[i] != expect[i]) {
            ++mismatches;
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Eight callers released together into the first-ever run of a fresh
// `fused` Transform race its schedule's lowering and publication; fixed()
// planning never runs the Transform, so the race is real every round.  At
// n = 18 with 2 threads each caller also splits its vector wherever the L2
// block is below 2^18 doubles (2^17 on a 2 MiB L2).  CI's TSan job runs
// this.
TEST(FusedThreads, ColdSchedulePublishIsRaceFree) {
  for (const int n : {10, 18}) {
    const core::Plan plan = core::Plan::iterative(n);
    const std::vector<double> input =
        util::random_vector(plan.size(), static_cast<std::uint64_t>(n));
    const std::vector<double> expect = serial_reference(input);
    for (int round = 0; round < 4; ++round) {
      const auto t =
          api::Planner().fixed(plan).backend("fused").threads(2).plan();
      std::atomic<bool> go{false};
      std::atomic<int> mismatches{0};
      std::vector<std::thread> callers;
      for (int c = 0; c < 8; ++c) {
        callers.emplace_back([&] {
          std::vector<double> x = input;
          while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
          t.execute(x.data());
          if (x != expect) ++mismatches;
        });
      }
      go.store(true, std::memory_order_release);
      for (std::thread& caller : callers) caller.join();
      EXPECT_EQ(mismatches.load(), 0) << "n=" << n << " round=" << round;
    }
  }
}

}  // namespace
}  // namespace whtlab::simd
