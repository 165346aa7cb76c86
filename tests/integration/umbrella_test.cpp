// Compile-and-use check for the umbrella header.
#include "whtlab.hpp"

#include <gtest/gtest.h>

namespace whtlab {
namespace {

TEST(Umbrella, EverySubsystemReachable) {
  const core::Plan plan = core::parse_plan("split[small[2],small[2]]");
  util::AlignedBuffer x(plan.size());
  x.fill(1.0);
  core::execute(plan, x.data());
  EXPECT_EQ(x[0], 16.0);

  EXPECT_GT(model::instruction_count(plan), 0.0);
  EXPECT_EQ(model::direct_mapped_misses(plan, {1024, 8}), 2u);
  EXPECT_EQ(cachesim::simulate_plan(plan, cachesim::CacheConfig::opteron_l1())
                .l1_misses,
            2u);

  search::PlanSpace space(4, 4);
  EXPECT_TRUE(space.count(4).fits_u64());

  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_NEAR(stats::pearson(xs, xs), 1.0, 1e-12);
  EXPECT_GT(perf::read_cycles(), 0u);
}

}  // namespace
}  // namespace whtlab
