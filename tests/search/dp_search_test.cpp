#include "search/dp_search.hpp"

#include <gtest/gtest.h>

#include "model/combined_model.hpp"
#include "model/instruction_model.hpp"
#include "search/enumerate.hpp"

namespace whtlab::search {
namespace {

double model_cost(const core::Plan& plan) {
  return model::instruction_count(plan);
}

TEST(DpSearch, FindsGlobalOptimumOfDecomposableCost) {
  // The instruction model is exactly decomposable over subtrees (child cost
  // enters with positive multiplier), so DP with all compositions must find
  // the true global minimum — cross-check against exhaustive search.
  DpOptions options;
  options.max_leaf = 4;
  for (int n = 1; n <= 7; ++n) {
    const auto result = dp_search(n, model_cost, options);
    double best = 1e300;
    for (const auto& plan : enumerate_plans(n, options.max_leaf)) {
      best = std::min(best, model_cost(plan));
    }
    EXPECT_DOUBLE_EQ(result.cost, best) << n;
    EXPECT_DOUBLE_EQ(model_cost(result.plan), result.cost);
  }
}

TEST(DpSearch, BestBySizeIsInternallyConsistent) {
  const auto result = dp_search(10, model_cost);
  for (int m = 1; m <= 10; ++m) {
    const auto& plan = result.best_by_size[static_cast<std::size_t>(m)];
    EXPECT_EQ(plan.log2_size(), m);
    EXPECT_DOUBLE_EQ(model_cost(plan), result.cost_by_size[static_cast<std::size_t>(m)]);
  }
  // Cost per size must be non-decreasing in n (bigger transform, more work).
  for (int m = 2; m <= 10; ++m) {
    EXPECT_GT(result.cost_by_size[static_cast<std::size_t>(m)],
              result.cost_by_size[static_cast<std::size_t>(m - 1)]);
  }
}

TEST(DpSearch, BeatsCanonicalPlansOnTheModel) {
  // The tuned plan uses larger base cases and must beat all three canonical
  // algorithms on modeled instructions (the Figure 2 "best" behaviour).
  const auto result = dp_search(16, model_cost);
  EXPECT_LT(result.cost, model_cost(core::Plan::iterative(16)));
  EXPECT_LT(result.cost, model_cost(core::Plan::right_recursive(16)));
  EXPECT_LT(result.cost, model_cost(core::Plan::left_recursive(16)));
}

TEST(DpSearch, MaxPartsRestrictsCandidates) {
  const auto full = dp_search(8, model_cost);
  DpOptions binary;
  binary.max_parts = 2;
  const auto restricted = dp_search(8, model_cost, binary);
  EXPECT_LT(restricted.evaluations, full.evaluations);
  EXPECT_GE(restricted.cost, full.cost);  // restriction can't improve
  // Every split in the witness is binary.
  std::function<void(const core::PlanNode&)> check = [&](const core::PlanNode& node) {
    if (node.kind == core::NodeKind::kSplit) {
      EXPECT_LE(node.children.size(), 2u);
      for (const auto& child : node.children) check(*child);
    }
  };
  check(restricted.plan.root());
}

TEST(DpSearch, CombinedModelCostWorksToo) {
  model::CombinedModel combined;
  combined.cache.cache_elements = 512;  // tiny cache: misses matter
  const auto result = dp_search(
      12, [&combined](const core::Plan& p) { return combined(p); });
  EXPECT_EQ(result.plan.log2_size(), 12);
  EXPECT_GT(result.cost, 0.0);
}

TEST(DpSearch, EvaluationBudgetIsSumOfCandidates) {
  DpOptions options;
  options.max_leaf = 1;  // leaf only admissible at m=1
  const auto result = dp_search(5, model_cost, options);
  // candidates: m=1: 1 leaf; m>=2: 2^(m-1)-1 compositions.
  // 1 + 1 + 3 + 7 + 15 = 27.
  EXPECT_EQ(result.evaluations, 27u);
  // With at most 4 parts, size m prices C(m-1, 1) + C(m-1, 2) + C(m-1, 3)
  // splits; summed over m = 2..20 with the leaf at m = 1:
  // 1 + C(20,2) + C(20,3) + C(20,4) = 1 + 190 + 1140 + 4845 = 6176.
  options.max_parts = 4;
  EXPECT_EQ(dp_search(20, model_cost, options).evaluations, 6176u);
}

TEST(DpSearch, ArgumentValidation) {
  EXPECT_THROW(dp_search(0, model_cost), std::invalid_argument);
  EXPECT_THROW(dp_search(5, nullptr), std::invalid_argument);
  DpOptions bad;
  bad.max_leaf = 99;
  EXPECT_THROW(dp_search(5, model_cost, bad), std::invalid_argument);
}

}  // namespace
}  // namespace whtlab::search
