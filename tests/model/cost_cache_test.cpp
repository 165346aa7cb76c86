// CostCache threading through the searches: memoization must change how
// often the cost function runs, and nothing else — same winners, same
// costs, fewer evaluations.
#include "model/cost_cache.hpp"

#include <gtest/gtest.h>

#include "core/plan.hpp"
#include "model/combined_model.hpp"
#include "search/dp_search.hpp"
#include "search/local_search.hpp"
#include "search/pruned_search.hpp"
#include "util/rng.hpp"

namespace whtlab::model {
namespace {

/// A combined-model cost that counts its invocations.
struct CountingCost {
  CombinedModel model;
  std::uint64_t* calls;
  double operator()(const core::Plan& plan) const {
    ++*calls;
    return model(plan);
  }
};

TEST(CostCache, DpSameResultWithSubtreeMemoization) {
  // DP's candidate stream has no whole-plan duplicates (each composition
  // assembles a distinct tree), so its win is the *subtree* memo inside the
  // combined model: every candidate at size m re-uses the already-priced
  // winners of its parts.  Results must be identical either way.
  const int n = 12;
  // Small enough a cache that the miss recursion actually descends (spans
  // above 1024 elements), same geometry on both sides.
  CombinedModel plain_model;
  plain_model.cache = {1024, 8};
  search::DpOptions plain_options;
  plain_options.max_parts = 4;
  std::uint64_t plain_calls = 0;
  const auto plain = search::dp_search(
      n, CountingCost{plain_model, &plain_calls}, plain_options);

  CostCache cache;
  search::DpOptions cached_options = plain_options;
  CombinedModel cached_model;
  cached_model.cache = {1024, 8};
  cached_model.cost_cache = &cache;
  std::uint64_t cached_calls = 0;
  const auto cached = search::dp_search(
      n, CountingCost{cached_model, &cached_calls}, cached_options);

  EXPECT_EQ(plain.plan, cached.plan);
  EXPECT_DOUBLE_EQ(plain.cost, cached.cost);
  EXPECT_LE(cached_calls, plain_calls);
  EXPECT_EQ(cached.evaluations, cached_calls);
  // The parts of every split candidate were priced as earlier winners.
  EXPECT_GT(cache.stats().subtree_hits, 0u);
}

TEST(CostCache, AnnealSameTrajectoryFewerEvaluations) {
  // Annealing is driven by (rng, accept decisions); costs are identical
  // either way, so the trajectory — and the winner — must be too.
  search::AnnealOptions options;
  options.iterations = 400;
  std::uint64_t plain_calls = 0;
  util::Rng plain_rng(42);
  const auto plain = search::anneal_search(
      10, CountingCost{{}, &plain_calls}, plain_rng, options);

  CostCache cache;
  search::AnnealOptions cached_options = options;
  cached_options.cost_cache = &cache;
  std::uint64_t cached_calls = 0;
  util::Rng cached_rng(42);
  const auto cached = search::anneal_search(
      10, CountingCost{{}, &cached_calls}, cached_rng, cached_options);

  EXPECT_EQ(plain.best, cached.best);
  EXPECT_DOUBLE_EQ(plain.best_cost, cached.best_cost);
  EXPECT_EQ(plain.accepted, cached.accepted);
  // Mutate/reject cycles revisit plans constantly; the memo must actually
  // absorb repeats (this is the whole point of threading it through).
  EXPECT_LT(cached_calls, plain_calls);
  EXPECT_GT(cache.stats().plan_hits, 0u);
}

TEST(CostCache, PrunedSearchSameRankingFewerModelCalls) {
  search::PrunedSearchOptions options;
  options.candidates = 150;
  options.keep_fraction = 0.2;
  // Deterministic stand-in for measurement so the test is noise-free.
  options.measure_fn = [](const core::Plan& plan) {
    return static_cast<double>(plan.node_count());
  };

  std::uint64_t plain_calls = 0;
  util::Rng plain_rng(7);
  const auto plain = search::model_pruned_search(
      10, CountingCost{{}, &plain_calls}, plain_rng, options);

  CostCache cache;
  search::PrunedSearchOptions cached_options = options;
  cached_options.cost_cache = &cache;
  std::uint64_t cached_calls = 0;
  util::Rng cached_rng(7);
  const auto cached = search::model_pruned_search(
      10, CountingCost{{}, &cached_calls}, cached_rng, cached_options);

  EXPECT_EQ(plain.best_plan, cached.best_plan);
  EXPECT_DOUBLE_EQ(plain.best_cycles, cached.best_cycles);
  EXPECT_DOUBLE_EQ(plain.model_threshold, cached.model_threshold);
  EXPECT_LE(cached_calls, plain_calls);
}

TEST(CostCache, StatsAndClear) {
  CostCache cache;
  EXPECT_FALSE(cache.lookup_plan("p"));
  cache.store_plan("p", 3.0);
  ASSERT_TRUE(cache.lookup_plan("p"));
  EXPECT_DOUBLE_EQ(*cache.lookup_plan("p"), 3.0);
  cache.store_subtree("s@0", 17);
  ASSERT_TRUE(cache.lookup_subtree("s@0"));
  EXPECT_EQ(*cache.lookup_subtree("s@0"), 17u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().plan_hits, 2u);  // ASSERT + deref above
  EXPECT_EQ(cache.stats().plan_misses, 1u);
  EXPECT_EQ(cache.stats().subtree_hits, 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().plan_hits, 0u);
}

}  // namespace
}  // namespace whtlab::model
