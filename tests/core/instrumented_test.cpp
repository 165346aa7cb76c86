// Instrumentation invariants.
//
// The pivotal one: the closed-form count_ops (O(tree), "computable from the
// high-level description") must equal the instrumented interpreter's tallies
// op-for-op on every plan — this is the reproduction's analogue of the
// model-vs-PAPI agreement in TCS'06.
#include "core/instrumented.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/executor.hpp"
#include "core/plan_io.hpp"
#include "core/verify.hpp"
#include "search/enumerate.hpp"
#include "search/sampler.hpp"
#include "util/rng.hpp"

namespace whtlab::core {
namespace {

TEST(OpCounts, LeafCountsAreExact) {
  // small[k]: 2^k loads/stores, k*2^k flops, 2*2^k index ops, 1 call.
  for (int k = 1; k <= kMaxUnrolled; ++k) {
    const OpCounts c = count_ops(Plan::small(k));
    const std::uint64_t m = std::uint64_t{1} << k;
    EXPECT_EQ(c.loads, m);
    EXPECT_EQ(c.stores, m);
    EXPECT_EQ(c.flops, static_cast<std::uint64_t>(k) * m);
    EXPECT_EQ(c.index_ops, 2 * m);
    EXPECT_EQ(c.calls, 1u);
    EXPECT_EQ(c.loop_outer, 0u);
    EXPECT_EQ(c.loop_mid, 0u);
    EXPECT_EQ(c.loop_inner, 0u);
  }
}

TEST(OpCounts, FlopCountIsNlogNForAllPlans) {
  // Every WHT algorithm performs exactly N*log2(N) adds/subs.
  util::Rng rng(42);
  search::RecursiveSplitSampler sampler(kMaxUnrolled);
  for (int n : {3, 6, 9, 12}) {
    for (int trial = 0; trial < 10; ++trial) {
      const Plan plan = sampler.sample(n, rng);
      const OpCounts c = count_ops(plan);
      EXPECT_EQ(c.flops, (std::uint64_t{1} << n) * static_cast<std::uint64_t>(n))
          << plan.to_string();
    }
  }
}

TEST(OpCounts, LoadsEqualStoresEqualNTimesLeaves) {
  // Each leaf call loads/stores its footprint once; summed over the tree
  // that is N per leaf node.
  const Plan plan = parse_plan("split[small[2],split[small[1],small[3]],small[2]]");
  const OpCounts c = count_ops(plan);
  const std::uint64_t n = plan.size();
  EXPECT_EQ(c.loads, n * static_cast<std::uint64_t>(plan.leaf_count()));
  EXPECT_EQ(c.stores, c.loads);
}

TEST(OpCounts, IterativeInnerLoopTotal) {
  // iterative(n): one split with n unit children; child i runs N/2 inner
  // iterations => total n*N/2.
  const int n = 8;
  const OpCounts c = count_ops(Plan::iterative(n));
  const std::uint64_t size = std::uint64_t{1} << n;
  EXPECT_EQ(c.loop_inner, static_cast<std::uint64_t>(n) * size / 2);
  EXPECT_EQ(c.loop_outer, static_cast<std::uint64_t>(n));
  // calls: 1 root + n*(N/2) leaf invocations.
  EXPECT_EQ(c.calls, 1 + static_cast<std::uint64_t>(n) * size / 2);
}

class ClosedFormVsInterpreter : public ::testing::TestWithParam<int> {};

TEST_P(ClosedFormVsInterpreter, AgreeOnEveryEnumeratedPlan) {
  const int n = GetParam();
  for (const auto& plan : search::enumerate_plans(n, 4)) {
    std::vector<double> x(plan.size(), 1.0);
    const OpCounts walked = execute_instrumented(plan, x.data());
    const OpCounts closed = count_ops(plan);
    EXPECT_EQ(walked, closed) << plan.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(SizesOneToFive, ClosedFormVsInterpreter,
                         ::testing::Range(1, 6));

TEST(Instrumented, AgreesOnRandomLargerPlans) {
  util::Rng rng(99);
  search::RecursiveSplitSampler sampler(kMaxUnrolled);
  for (int n : {8, 10, 11}) {
    for (int trial = 0; trial < 4; ++trial) {
      const Plan plan = sampler.sample(n, rng);
      std::vector<double> x(plan.size(), 0.5);
      EXPECT_EQ(execute_instrumented(plan, x.data()), count_ops(plan))
          << plan.to_string();
    }
  }
}

TEST(Instrumented, ExecutionIsNumericallyIdenticalToProduction) {
  util::Rng rng(123);
  search::RecursiveSplitSampler sampler(kMaxUnrolled);
  const Plan plan = sampler.sample(10, rng);
  const std::uint64_t size = plan.size();
  std::vector<double> a(size);
  std::vector<double> b(size);
  util::Rng fill(5);
  for (std::uint64_t i = 0; i < size; ++i) a[i] = b[i] = fill.uniform(-1, 1);
  execute(plan, a.data());
  execute_instrumented(plan, b.data());
  for (std::uint64_t i = 0; i < size; ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ReferenceStream, AccessCountMatchesOpCounts) {
  util::Rng rng(7);
  search::RecursiveSplitSampler sampler(kMaxUnrolled);
  for (int n : {4, 7, 10}) {
    const Plan plan = sampler.sample(n, rng);
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    auto sink = [&](std::uint64_t /*index*/, bool is_store) {
      if (is_store) ++stores; else ++loads;
    };
    reference_stream(plan, sink);
    const OpCounts c = count_ops(plan);
    EXPECT_EQ(loads, c.loads);
    EXPECT_EQ(stores, c.stores);
  }
}

TEST(ReferenceStream, TouchesExactlyTheFootprint) {
  const Plan plan = Plan::balanced_binary(9, 3);
  std::vector<int> touched(plan.size(), 0);
  auto sink = [&](std::uint64_t index, bool /*is_store*/) {
    ASSERT_LT(index, plan.size());
    ++touched[index];
  };
  reference_stream(plan, sink);
  for (std::uint64_t i = 0; i < plan.size(); ++i) {
    EXPECT_GT(touched[i], 0) << i;  // every element read and written
  }
}

TEST(ReferenceStream, LeafStreamOrderIsLoadsThenStores) {
  const Plan plan = Plan::small(2);
  std::vector<std::pair<std::uint64_t, bool>> events;
  auto sink = [&](std::uint64_t index, bool is_store) {
    events.emplace_back(index, is_store);
  };
  reference_stream(plan, sink);
  ASSERT_EQ(events.size(), 8u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)],
              (std::pair<std::uint64_t, bool>{static_cast<std::uint64_t>(i), false}));
    EXPECT_EQ(events[static_cast<std::size_t>(i + 4)],
              (std::pair<std::uint64_t, bool>{static_cast<std::uint64_t>(i), true}));
  }
}

TEST(OpCounts, ScaledMultipliesEveryField) {
  OpCounts c;
  c.loads = 2; c.stores = 3; c.flops = 4; c.index_ops = 5;
  c.loop_outer = 6; c.loop_mid = 7; c.loop_inner = 8; c.calls = 9;
  const OpCounts s = c.scaled(10);
  EXPECT_EQ(s.loads, 20u);
  EXPECT_EQ(s.stores, 30u);
  EXPECT_EQ(s.flops, 40u);
  EXPECT_EQ(s.index_ops, 50u);
  EXPECT_EQ(s.loop_outer, 60u);
  EXPECT_EQ(s.loop_mid, 70u);
  EXPECT_EQ(s.loop_inner, 80u);
  EXPECT_EQ(s.calls, 90u);
}

TEST(InstructionWeights, WeightedSumIsLinear) {
  InstructionWeights w;
  OpCounts a;
  a.loads = 10;
  OpCounts b;
  b.flops = 20;
  OpCounts both = a;
  both += b;
  EXPECT_DOUBLE_EQ(w.instructions(both), w.instructions(a) + w.instructions(b));
}

}  // namespace
}  // namespace whtlab::core
