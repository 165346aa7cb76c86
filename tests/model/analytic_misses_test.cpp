// The analytic cache model's defining invariant: bit-for-bit agreement with
// the trace-replay oracle (the tag-per-set walk it replaced) — exact, no
// tolerance — across every enumerated plan at small sizes, sampled and
// canonical plans through n = 14, and multiple cache geometries including
// degenerate ones (single-element lines, line == cache).  On top of the
// number itself, planning must be unchanged: DP over the analytic model
// must pick the same plan as DP over the oracle.
#include "model/analytic_misses.hpp"

#include <gtest/gtest.h>

#include "core/plan.hpp"
#include "model/cache_model.hpp"
#include "model/combined_model.hpp"
#include "model/cost_cache.hpp"
#include "model/instruction_model.hpp"
#include "search/dp_search.hpp"
#include "search/enumerate.hpp"
#include "search/sampler.hpp"
#include "util/rng.hpp"

namespace whtlab::model {
namespace {

using core::Plan;

/// The >= 4 geometries the agreement suite sweeps: the paper machine's L1,
/// two conflict-heavy small caches, a single-element-line geometry, and the
/// degenerate line == cache.
const CacheModelConfig kGeometries[] = {
    {8192, 8}, {1024, 8}, {32, 4}, {64, 1}, {128, 128},
};

std::vector<Plan> canonical_plans(int n) {
  std::vector<Plan> plans{Plan::iterative(n), Plan::right_recursive(n),
                          Plan::left_recursive(n), Plan::balanced_binary(n, 4)};
  if (n > 3) plans.push_back(Plan::iterative_radix(n, 3));
  return plans;
}

TEST(AnalyticMisses, MatchesOracleOnEveryEnumeratedPlan) {
  for (int n = 1; n <= 7; ++n) {
    const auto plans = search::enumerate_plans(n, 5);
    for (const auto& config : kGeometries) {
      for (const auto& plan : plans) {
        ASSERT_EQ(analytic_direct_mapped_misses(plan, config),
                  trace_direct_mapped_misses(plan, config))
            << plan.to_string() << " C=" << config.cache_elements
            << " L=" << config.line_elements;
      }
    }
  }
}

TEST(AnalyticMisses, MatchesOracleOnSampledPlansThroughFourteen) {
  util::Rng rng(2026);
  search::RecursiveSplitSampler sampler(core::kMaxUnrolled);
  for (int n = 8; n <= 14; ++n) {
    for (const auto& config : kGeometries) {
      for (const auto& plan : canonical_plans(n)) {
        ASSERT_EQ(analytic_direct_mapped_misses(plan, config),
                  trace_direct_mapped_misses(plan, config))
            << plan.to_string() << " C=" << config.cache_elements
            << " L=" << config.line_elements;
      }
      for (int trial = 0; trial < 25; ++trial) {
        const Plan plan = sampler.sample(n, rng);
        ASSERT_EQ(analytic_direct_mapped_misses(plan, config),
                  trace_direct_mapped_misses(plan, config))
            << plan.to_string() << " C=" << config.cache_elements
            << " L=" << config.line_elements;
      }
    }
  }
}

TEST(AnalyticMisses, DefaultRoutingUsesTheAnalyticEngine) {
  // direct_mapped_misses() is the analytic recursion, and both equal the
  // oracle anyway.
  util::Rng rng(7);
  search::RecursiveSplitSampler sampler(core::kMaxUnrolled);
  const Plan plan = sampler.sample(13, rng);
  for (const auto& config : kGeometries) {
    EXPECT_EQ(direct_mapped_misses(plan, config),
              analytic_direct_mapped_misses(plan, config));
  }
}

TEST(AnalyticMisses, DpPicksTheSamePlanAsTheOracleModel) {
  // The acceptance bar that matters for planning: swapping the miss engine
  // under the combined model must not change any DP argmin.  (Costs are
  // equal because the counts are equal; asserting the chosen plan guards
  // against tie-breaking drift too.)
  for (const CacheModelConfig& config :
       {CacheModelConfig{1024, 8}, CacheModelConfig{8192, 8}}) {
    for (int n = 4; n <= 12; n += 2) {
      const core::InstructionWeights weights;
      const auto analytic_cost = [&](const Plan& plan) {
        return instruction_count(plan, weights) +
               0.05 * static_cast<double>(
                          analytic_direct_mapped_misses(plan, config));
      };
      const auto oracle_cost = [&](const Plan& plan) {
        return instruction_count(plan, weights) +
               0.05 * static_cast<double>(
                          trace_direct_mapped_misses(plan, config));
      };
      search::DpOptions options;
      options.max_parts = 4;
      const auto fast = search::dp_search(n, analytic_cost, options);
      const auto slow = search::dp_search(n, oracle_cost, options);
      EXPECT_EQ(fast.plan, slow.plan)
          << "n=" << n << " C=" << config.cache_elements;
      EXPECT_DOUBLE_EQ(fast.cost, slow.cost);
    }
  }
}

TEST(AnalyticMisses, MemoizedRecursionMatchesAndHits) {
  // Same counts with a CostCache attached, and repeated pricing of plans
  // sharing subtrees actually serves from the memo.
  const CacheModelConfig config{1024, 8};
  CostCache cache;
  util::Rng rng(99);
  search::RecursiveSplitSampler sampler(core::kMaxUnrolled);
  for (int trial = 0; trial < 10; ++trial) {
    const Plan plan = sampler.sample(12, rng);
    EXPECT_EQ(analytic_direct_mapped_misses(plan, config, &cache),
              analytic_direct_mapped_misses(plan, config));
    // Re-pricing the identical plan is answered entirely from the memo.
    const auto before = cache.stats().subtree_misses;
    EXPECT_EQ(analytic_direct_mapped_misses(plan, config, &cache),
              analytic_direct_mapped_misses(plan, config));
    EXPECT_EQ(cache.stats().subtree_misses, before);
  }
  EXPECT_GT(cache.stats().subtree_hits, 0u);
}

TEST(AnalyticMisses, CombinedModelThreadsTheCacheThrough) {
  CombinedModel plain;
  CombinedModel cached;
  CostCache cache;
  cached.cost_cache = &cache;
  const Plan plan = Plan::balanced_binary(14, 4);
  EXPECT_DOUBLE_EQ(plain(plan), cached(plan));
  EXPECT_GT(cache.size(), 0u);
}

}  // namespace
}  // namespace whtlab::model
