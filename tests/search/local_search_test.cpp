#include "search/local_search.hpp"

#include <gtest/gtest.h>

#include "core/verify.hpp"
#include "model/instruction_model.hpp"
#include "search/dp_search.hpp"
#include "search/sampler.hpp"
#include "util/rng.hpp"

namespace whtlab::search {
namespace {

TEST(MutatePlan, PreservesSizeAndValidity) {
  util::Rng rng(1);
  RecursiveSplitSampler sampler(core::kMaxUnrolled);
  for (int n : {4, 9, 14}) {
    core::Plan plan = sampler.sample(n, rng);
    for (int step = 0; step < 25; ++step) {
      plan = mutate_plan(plan, core::kMaxUnrolled, rng);
      ASSERT_TRUE(plan.valid());
      ASSERT_EQ(plan.log2_size(), n);
      ASSERT_LE(plan.max_leaf_log2(), core::kMaxUnrolled);
    }
    EXPECT_LT(core::verify_plan(plan), 1e-8);  // still the right transform
  }
}

TEST(MutatePlan, RespectsLeafLimit) {
  util::Rng rng(2);
  RecursiveSplitSampler sampler(2);
  core::Plan plan = sampler.sample(8, rng);
  for (int step = 0; step < 50; ++step) {
    plan = mutate_plan(plan, 2, rng);
    ASSERT_LE(plan.max_leaf_log2(), 2);
  }
}

TEST(MutatePlan, EventuallyChangesThePlan) {
  util::Rng rng(3);
  RecursiveSplitSampler sampler(core::kMaxUnrolled);
  const core::Plan original = sampler.sample(10, rng);
  int changed = 0;
  for (int step = 0; step < 20; ++step) {
    if (mutate_plan(original, core::kMaxUnrolled, rng) != original) ++changed;
  }
  EXPECT_GT(changed, 10);
}

TEST(MutatePlan, LeafPlanCanBeMutated) {
  util::Rng rng(4);
  const core::Plan leaf = core::Plan::small(6);
  // The only node is the root; mutation resamples the whole plan.
  bool saw_split = false;
  for (int step = 0; step < 50; ++step) {
    if (mutate_plan(leaf, core::kMaxUnrolled, rng).leaf_count() > 1) {
      saw_split = true;
      break;
    }
  }
  EXPECT_TRUE(saw_split);
}

TEST(Anneal, ImprovesOnRandomStart) {
  const auto cost = [](const core::Plan& p) {
    return model::instruction_count(p);
  };
  util::Rng rng(5);
  AnnealOptions options;
  options.iterations = 400;
  const auto result = anneal_search(12, cost, rng, options);
  // Must beat the average random plan comfortably: compare with a fresh
  // random sample's mean cost.
  RecursiveSplitSampler sampler(core::kMaxUnrolled);
  double total = 0.0;
  const int probes = 50;
  for (int i = 0; i < probes; ++i) total += cost(sampler.sample(12, rng));
  EXPECT_LT(result.best_cost, 0.8 * total / probes);
  EXPECT_EQ(result.best.log2_size(), 12);
  EXPECT_GT(result.evaluations, 400u);
}

TEST(Anneal, ApproachesDpOptimumOnDecomposableCost) {
  const auto cost = [](const core::Plan& p) {
    return model::instruction_count(p);
  };
  const auto dp = dp_search(8, cost);
  util::Rng rng(6);
  AnnealOptions options;
  options.iterations = 1500;
  const auto result = anneal_search(8, cost, rng, options);
  // DP is globally optimal for this cost; annealing should land within 10%.
  EXPECT_LE(dp.cost, result.best_cost);
  EXPECT_LT(result.best_cost, 1.10 * dp.cost);
}

TEST(Anneal, ZeroTemperatureIsGreedy) {
  const auto cost = [](const core::Plan& p) {
    return model::instruction_count(p);
  };
  util::Rng rng(7);
  AnnealOptions options;
  options.iterations = 200;
  options.initial_temperature = 0.0;
  const auto result = anneal_search(10, cost, rng, options);
  EXPECT_GT(result.evaluations, 0u);
  EXPECT_EQ(result.best.log2_size(), 10);
}

TEST(Anneal, Validation) {
  util::Rng rng(8);
  EXPECT_THROW(anneal_search(5, nullptr, rng), std::invalid_argument);
  AnnealOptions bad;
  bad.iterations = 0;
  EXPECT_THROW(anneal_search(5, [](const core::Plan&) { return 1.0; }, rng, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace whtlab::search
