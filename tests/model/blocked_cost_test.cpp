// Blocked cost model: the memory-pass term prices sweeps, the butterfly
// term prices vector width, and plan shape is (deliberately) priced out.
#include "model/blocked_cost.hpp"

#include <gtest/gtest.h>

#include "core/plan.hpp"
#include "core/schedule.hpp"

namespace whtlab::model {
namespace {

BlockedCostConfig test_config() {
  BlockedCostConfig config;
  config.blocking.l1_block_log2 = 11;
  config.blocking.l2_block_log2 = 17;
  return config;
}

TEST(BlockedCost, ButterflyTermScalesWithWidth) {
  BlockedCostConfig narrow = test_config();
  BlockedCostConfig wide = test_config();
  wide.vector_width = 8;
  // Below the L1 block everything is in cache; sweep weights are equal, so
  // the full width-8 saving shows up in the difference.
  const core::Plan plan = core::Plan::iterative(10);
  const double n = 1 << 10;
  EXPECT_DOUBLE_EQ(blocked_cost(plan, narrow) - blocked_cost(plan, wide),
                   n * 10 - n * 10 / 8.0);
}

TEST(BlockedCost, SweepTermMatchesScheduleSweeps) {
  const BlockedCostConfig config = test_config();
  // n = 20 with blocks 2^11 / 2^17: 2 sweeps (nested + one radix-8 pass),
  // beyond-L2 weight on both.
  const core::Schedule schedule = core::lower_size(20, config.blocking);
  ASSERT_EQ(core::sweep_count(schedule), 2);
  const double n = 1 << 20;
  EXPECT_DOUBLE_EQ(schedule_cost(schedule, config),
                   n * 20 + 2 * n * config.mem_sweep_weight);
}

TEST(BlockedCost, CrossingL2AddsTheDominantTerm) {
  const BlockedCostConfig config = test_config();
  // Per-point cost jumps when the working set leaves L2 and again with
  // every extra top-level sweep.
  const double in_l2 =
      blocked_cost(core::Plan::iterative(16), config) / (1 << 16);
  const double beyond =
      blocked_cost(core::Plan::iterative(20), config) / (1 << 20);
  EXPECT_GT(beyond, in_l2);
  // n = 24 takes a third sweep ([17, 24) needs two streaming passes);
  // the extra sweep outweighs the four extra butterfly stages.
  ASSERT_EQ(core::sweep_count(core::lower_size(24, config.blocking)), 3);
  const double three_sweeps =
      blocked_cost(core::Plan::iterative(24), config) / (1 << 24);
  EXPECT_GT(three_sweeps, beyond + (24 - 20) * config.butterfly_weight);
}

TEST(BlockedCost, PlanShapeDoesNotChangeThePrice) {
  const BlockedCostConfig config = test_config();
  for (int n : {8, 14, 20}) {
    EXPECT_DOUBLE_EQ(blocked_cost(core::Plan::iterative(n), config),
                     blocked_cost(core::Plan::balanced_binary(n, 4), config))
        << n;
  }
}

TEST(BlockedCost, FeaturesAreTheCostGradient) {
  // schedule_cost must equal the dot product of schedule_features with the
  // config weights.
  const BlockedCostConfig config = test_config();
  for (int n : {8, 14, 18, 20, 24}) {
    const BlockedFeatures f = blocked_features(n, config);
    EXPECT_DOUBLE_EQ(blocked_cost(core::Plan::iterative(n), config),
                     config.butterfly_weight * f.butterflies +
                         config.l1_sweep_weight * f.l1_doubles +
                         config.l2_sweep_weight * f.l2_doubles +
                         config.mem_sweep_weight * f.mem_doubles)
        << n;
  }
}

}  // namespace
}  // namespace whtlab::model
