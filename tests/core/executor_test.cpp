// Executor correctness across the whole plan family.
//
// Key property: EVERY plan of size 2^n computes the same transform.  We test
// canonical plans against both references, every enumerated plan for small
// n, random plans for larger n, and algebraic invariants (linearity,
// involution, Parseval).
#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/plan_io.hpp"
#include "core/verify.hpp"
#include "search/enumerate.hpp"
#include "search/sampler.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace whtlab::core {
namespace {

TEST(Executor, LeafPlanMatchesDense) {
  for (int k = 1; k <= kMaxUnrolled; ++k) {
    EXPECT_LT(verify_plan(Plan::small(k)), 1e-11) << k;
  }
}

TEST(Executor, CanonicalPlansMatchReference) {
  for (int n = 1; n <= 14; ++n) {
    EXPECT_LT(verify_plan(Plan::iterative(n)), 1e-9) << "iterative " << n;
    EXPECT_LT(verify_plan(Plan::right_recursive(n)), 1e-9) << "right " << n;
    EXPECT_LT(verify_plan(Plan::left_recursive(n)), 1e-9) << "left " << n;
    EXPECT_LT(verify_plan(Plan::balanced_binary(n, 4)), 1e-9) << "bal " << n;
  }
}

TEST(Executor, FastReferenceMatchesDense) {
  // The two references are independent; cross-check them.
  for (int n = 1; n <= 10; ++n) {
    const std::uint64_t size = std::uint64_t{1} << n;
    std::vector<double> x(size);
    std::vector<double> dense(size);
    util::Rng rng(n);
    for (auto& v : x) v = rng.uniform(-1, 1);
    dense_wht_apply(n, x.data(), dense.data());
    fast_wht_reference(n, x.data());
    EXPECT_LT(max_abs_diff(x.data(), dense.data(), size), 1e-10) << n;
  }
}

class ExhaustivePlanTest : public ::testing::TestWithParam<int> {};

TEST_P(ExhaustivePlanTest, EveryPlanComputesTheSameTransform) {
  const int n = GetParam();
  const auto plans = search::enumerate_plans(n, /*max_leaf=*/4);
  ASSERT_FALSE(plans.empty());
  for (const auto& plan : plans) {
    EXPECT_LT(verify_plan(plan), 1e-10) << plan.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(SizesOneToSix, ExhaustivePlanTest,
                         ::testing::Range(1, 7));

TEST(Executor, RandomPlansMediumSizes) {
  util::Rng rng(2024);
  search::RecursiveSplitSampler sampler(kMaxUnrolled);
  for (int n : {8, 10, 12, 13}) {
    for (int trial = 0; trial < 8; ++trial) {
      const Plan plan = sampler.sample(n, rng);
      EXPECT_LT(verify_plan(plan), 1e-8)
          << "n=" << n << " plan=" << plan.to_string();
    }
  }
}

TEST(Executor, RandomPlansBitIdenticalToFastReference) {
  // Every plan applies the bit stages lowest first, each as the same
  // butterflies, so every plan rounds exactly like the textbook loop.
  util::Rng rng(7);
  search::RecursiveSplitSampler sampler(kMaxUnrolled);
  for (int trial = 0; trial < 5; ++trial) {
    const Plan plan = sampler.sample(10, rng);
    const std::uint64_t size = plan.size();
    util::AlignedBuffer a(size);
    util::AlignedBuffer b(size);
    util::Rng fill(trial);
    for (std::uint64_t i = 0; i < size; ++i) a[i] = b[i] = fill.uniform(-1, 1);
    execute(plan, a.data());
    fast_wht_reference(plan.log2_size(), b.data());
    for (std::uint64_t i = 0; i < size; ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(Executor, Linearity) {
  // WHT(a*x + b*y) = a*WHT(x) + b*WHT(y).
  const Plan plan = parse_plan("split[small[2],split[small[1],small[2]],small[1]]");
  const std::uint64_t size = plan.size();
  util::Rng rng(5);
  std::vector<double> x(size);
  std::vector<double> y(size);
  std::vector<double> combo(size);
  const double a = 2.5;
  const double b = -1.25;
  for (std::uint64_t i = 0; i < size; ++i) {
    x[i] = rng.uniform(-1, 1);
    y[i] = rng.uniform(-1, 1);
    combo[i] = a * x[i] + b * y[i];
  }
  execute(plan, x.data());
  execute(plan, y.data());
  execute(plan, combo.data());
  for (std::uint64_t i = 0; i < size; ++i) {
    EXPECT_NEAR(combo[i], a * x[i] + b * y[i], 1e-10);
  }
}

TEST(Executor, InvolutionScaledByN) {
  for (int n : {4, 7, 9}) {
    const Plan plan = Plan::balanced_binary(n, 3);
    const std::uint64_t size = plan.size();
    std::vector<double> x(size);
    std::vector<double> original(size);
    util::Rng rng(n);
    for (std::uint64_t i = 0; i < size; ++i) original[i] = x[i] = rng.uniform(-1, 1);
    execute(plan, x.data());
    execute(plan, x.data());
    for (std::uint64_t i = 0; i < size; ++i) {
      EXPECT_NEAR(x[i], static_cast<double>(size) * original[i], 1e-7 * size);
    }
  }
}

TEST(Executor, ParsevalScaling) {
  // ||WHT x||^2 = N * ||x||^2 (rows are orthogonal with norm sqrt(N)).
  const Plan plan = Plan::iterative(10);
  const std::uint64_t size = plan.size();
  std::vector<double> x(size);
  util::Rng rng(31);
  double norm_in = 0.0;
  for (auto& v : x) {
    v = rng.uniform(-1, 1);
    norm_in += v * v;
  }
  execute(plan, x.data());
  double norm_out = 0.0;
  for (double v : x) norm_out += v * v;
  EXPECT_NEAR(norm_out, static_cast<double>(size) * norm_in, 1e-6 * norm_out);
}

TEST(Executor, ImpulseGivesConstantRow) {
  // WHT * e_0 = all-ones.
  const Plan plan = Plan::right_recursive(8);
  const std::uint64_t size = plan.size();
  std::vector<double> x(size, 0.0);
  x[0] = 1.0;
  execute(plan, x.data());
  for (double v : x) EXPECT_EQ(v, 1.0);
}

TEST(Executor, ConstantInputConcentratesAtZero) {
  // WHT * ones = N * e_0.
  const Plan plan = Plan::left_recursive(8);
  const std::uint64_t size = plan.size();
  std::vector<double> x(size, 1.0);
  execute(plan, x.data());
  EXPECT_EQ(x[0], static_cast<double>(size));
  for (std::uint64_t i = 1; i < size; ++i) EXPECT_EQ(x[i], 0.0);
}

TEST(Executor, MixedLeafSizePlan) {
  const Plan plan = parse_plan("split[small[4],small[3],small[2],small[1]]");
  EXPECT_EQ(plan.log2_size(), 10);
  EXPECT_LT(verify_plan(plan), 1e-9);
}

TEST(Executor, DeepNestedPlan) {
  const Plan plan = parse_plan(
      "split[split[small[1],split[small[1],small[1]]],"
      "split[split[small[1],small[1]],small[1]],small[2]]");
  EXPECT_EQ(plan.log2_size(), 8);
  EXPECT_LT(verify_plan(plan), 1e-9);
}

}  // namespace
}  // namespace whtlab::core
