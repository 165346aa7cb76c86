// wht::Planner: strategy -> search-module mapping, backend selection rules,
// option validation, and determinism of the model-driven strategies.
#include "api/planner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/verify.hpp"
#include "model/combined_model.hpp"
#include "search/dp_search.hpp"
#include "search/exhaustive.hpp"
#include "search/local_search.hpp"
#include "simd/cpu_features.hpp"

namespace whtlab::api {
namespace {

TEST(Planner, DefaultStrategyIsEstimate) {
  auto t = Planner().plan(8);
  EXPECT_EQ(t.planning().strategy, Strategy::kEstimate);
  EXPECT_GT(t.planning().evaluations, 0u);
  EXPECT_GT(t.planning().cost, 0.0);
  EXPECT_EQ(t.log2_size(), 8);
  EXPECT_LT(core::verify_plan(t.plan()), 1e-10);
}

TEST(Planner, EstimateAgreesWithDirectDpSearch) {
  // The façade must pick exactly what dp_search over the combined model
  // picks (same options: max_parts auto = 4).
  const int n = 9;
  auto t = Planner().strategy(Strategy::kEstimate).plan(n);
  search::DpOptions options;
  options.max_parts = 4;
  const model::CombinedModel model;
  const auto direct = search::dp_search(
      n, [&model](const core::Plan& p) { return model(p); }, options);
  EXPECT_EQ(t.plan(), direct.plan);
  EXPECT_DOUBLE_EQ(t.planning().cost, direct.cost);
  EXPECT_EQ(t.planning().evaluations, direct.evaluations);
}

TEST(Planner, EstimateIsDeterministic) {
  auto a = Planner().plan(10);
  auto b = Planner().plan(10);
  EXPECT_EQ(a.plan(), b.plan());
}

TEST(Planner, DpStrategiesExposeWinnersBySize) {
  // The DP winners-by-size table (the old examples/autotune output) rides
  // on PlanningInfo: entry m is the best plan of size 2^m under the same
  // cost, and the top entry is the chosen plan.
  const int n = 9;
  auto t = Planner().strategy(Strategy::kEstimate).plan(n);
  const auto& info = t.planning();
  ASSERT_EQ(info.best_by_size.size(), static_cast<std::size_t>(n) + 1);
  ASSERT_EQ(info.cost_by_size.size(), static_cast<std::size_t>(n) + 1);
  EXPECT_EQ(info.best_by_size[static_cast<std::size_t>(n)], t.plan());
  EXPECT_DOUBLE_EQ(info.cost_by_size[static_cast<std::size_t>(n)], info.cost);
  const model::CombinedModel model;
  for (int m = 1; m <= n; ++m) {
    const auto& best = info.best_by_size[static_cast<std::size_t>(m)];
    ASSERT_TRUE(best.valid()) << m;
    EXPECT_EQ(best.log2_size(), m);
    EXPECT_DOUBLE_EQ(model(best), info.cost_by_size[static_cast<std::size_t>(m)]);
  }
  // Non-DP strategies leave the table empty.
  EXPECT_TRUE(Planner().fixed(core::Plan::small(4)).plan().planning()
                  .best_by_size.empty());
}

TEST(Planner, AnnealStrategyIsReachableAndSeedDeterministic) {
  search::AnnealOptions schedule;
  schedule.iterations = 120;
  auto a = Planner().strategy(Strategy::kAnneal).anneal_options(schedule)
               .seed(5).plan(10);
  auto b = Planner().strategy(Strategy::kAnneal).anneal_options(schedule)
               .seed(5).plan(10);
  EXPECT_EQ(a.planning().strategy, Strategy::kAnneal);
  EXPECT_GT(a.planning().evaluations, 0u);
  EXPECT_GT(a.planning().cost, 0.0);
  EXPECT_EQ(a.plan(), b.plan());  // same seed, same schedule -> same walk
  EXPECT_EQ(a.log2_size(), 10);
  EXPECT_LT(core::verify_plan(a.plan()), 1e-10);
}

TEST(Planner, AnnealRespectsMaxLeaf) {
  search::AnnealOptions schedule;
  schedule.iterations = 80;
  auto t = Planner().strategy(Strategy::kAnneal).anneal_options(schedule)
               .max_leaf(3).plan(9);
  EXPECT_LE(t.plan().max_leaf_log2(), 3);
}

TEST(Planner, AnnealOptionValidation) {
  search::AnnealOptions bad;
  bad.iterations = 0;
  EXPECT_THROW(Planner().anneal_options(bad), std::invalid_argument);
}

TEST(Planner, MeasureStrategyProducesValidPlan) {
  perf::MeasureOptions cheap;
  cheap.repetitions = 1;
  cheap.warmup = 0;
  cheap.inner_loop = 1;
  auto t = Planner()
               .strategy(Strategy::kMeasure)
               .measure_options(cheap)
               .plan(6);
  EXPECT_EQ(t.planning().strategy, Strategy::kMeasure);
  EXPECT_GT(t.planning().evaluations, 0u);
  EXPECT_EQ(t.log2_size(), 6);
  EXPECT_LT(core::verify_plan(t.plan()), 1e-10);
}

TEST(Planner, ExhaustiveStrategyMatchesSpaceSize) {
  perf::MeasureOptions cheap;
  cheap.repetitions = 1;
  cheap.warmup = 0;
  cheap.inner_loop = 1;
  auto t = Planner()
               .strategy(Strategy::kExhaustive)
               .measure_options(cheap)
               .max_leaf(3)
               .plan(4);
  // Evaluation count = full space size for this (n, max_leaf).
  const auto direct = search::exhaustive_search(
      4, [](const core::Plan&) { return 1.0; }, /*max_leaf=*/3);
  EXPECT_EQ(t.planning().evaluations, direct.evaluated);
  EXPECT_LT(core::verify_plan(t.plan()), 1e-10);
}

TEST(Planner, ExhaustiveRefusesLargeSizes) {
  EXPECT_THROW(Planner().strategy(Strategy::kExhaustive).plan(12),
               std::invalid_argument);
}

TEST(Planner, SampledStrategyIsSeedDeterministic) {
  perf::MeasureOptions cheap;
  cheap.repetitions = 1;
  cheap.warmup = 0;
  cheap.inner_loop = 1;
  Planner planner;
  planner.strategy(Strategy::kSampled)
      .samples(30)
      .keep_fraction(0.2)
      .seed(77)
      .measure_options(cheap);
  auto a = planner.plan(8);
  auto b = planner.plan(8);
  // Same seed -> same candidate set -> same measured subset; cycles differ,
  // but both picks come from the same 6 measured plans.
  EXPECT_EQ(a.planning().evaluations, 6u);
  EXPECT_EQ(b.planning().evaluations, 6u);
  EXPECT_LT(core::verify_plan(a.plan()), 1e-10);
}

TEST(Planner, FixedStrategyUsesPlanVerbatim) {
  const core::Plan plan = core::Plan::right_recursive(7);
  auto t = Planner().fixed(plan).plan();
  EXPECT_EQ(t.planning().strategy, Strategy::kFixed);
  EXPECT_EQ(t.planning().evaluations, 0u);
  EXPECT_EQ(t.plan(), plan);
}

TEST(Planner, FixedFromGrammarString) {
  auto t = Planner().fixed("split[small[4],small[4]]").plan(8);
  EXPECT_EQ(t.plan().to_string(), "split[small[4],small[4]]");
}

TEST(Planner, FixedSizeMismatchThrows) {
  EXPECT_THROW(Planner().fixed(core::Plan::small(4)).plan(5),
               std::invalid_argument);
}

TEST(Planner, FixedRejectsEmptyPlanAndBadGrammar) {
  EXPECT_THROW(Planner().fixed(core::Plan()), std::invalid_argument);
  EXPECT_THROW(Planner().fixed("split[small[4]"), std::invalid_argument);
}

TEST(Planner, PlanWithoutSizeRequiresFixed) {
  EXPECT_THROW(Planner().plan(), std::invalid_argument);
}

TEST(Planner, BackendDefaultsFollowThreads) {
  EXPECT_EQ(Planner().plan(4).backend_name(), "generated");
  EXPECT_EQ(Planner().threads(4).plan(4).backend_name(), "parallel");
  // An explicit backend wins over the threads heuristic.
  EXPECT_EQ(Planner().threads(4).backend("generated").plan(4).backend_name(),
            "generated");
}

TEST(Planner, UnknownBackendThrows) {
  EXPECT_THROW(Planner().backend("gpu-someday").plan(4), std::invalid_argument);
}

TEST(Planner, OptionValidation) {
  EXPECT_THROW(Planner().threads(0), std::invalid_argument);
  EXPECT_THROW(Planner().max_leaf(0), std::invalid_argument);
  EXPECT_THROW(Planner().max_leaf(core::kMaxUnrolled + 1), std::invalid_argument);
  EXPECT_THROW(Planner().max_parts(-2), std::invalid_argument);
  EXPECT_THROW(Planner().samples(0), std::invalid_argument);
  EXPECT_THROW(Planner().keep_fraction(0.0), std::invalid_argument);
  EXPECT_THROW(Planner().keep_fraction(1.5), std::invalid_argument);
  EXPECT_THROW(Planner().plan(0), std::invalid_argument);
  EXPECT_THROW(Planner().plan(27), std::invalid_argument);
}

TEST(Planner, MaxPartsOfOneIsRefusedByTheSetter) {
  // A split has at least two parts: a cap of 1 would leave the DP nothing
  // to compose above the largest leaf, so the setter refuses it instead of
  // plan() failing later.
  EXPECT_THROW(Planner().max_parts(1), std::invalid_argument);
  EXPECT_NO_THROW(Planner().max_parts(-1).max_parts(0).max_parts(2));
  EXPECT_TRUE(Planner().max_parts(2).plan(12).plan().valid());
}

TEST(Planner, MaxLeafIsRespected) {
  auto t = Planner().strategy(Strategy::kEstimate).max_leaf(2).plan(9);
  EXPECT_LE(t.plan().max_leaf_log2(), 2);
}

TEST(Strategy, ToStringCoversAllValues) {
  EXPECT_STREQ(to_string(Strategy::kEstimate), "estimate");
  EXPECT_STREQ(to_string(Strategy::kMeasure), "measure");
  EXPECT_STREQ(to_string(Strategy::kExhaustive), "exhaustive");
  EXPECT_STREQ(to_string(Strategy::kSampled), "sampled");
  EXPECT_STREQ(to_string(Strategy::kAnneal), "anneal");
  EXPECT_STREQ(to_string(Strategy::kFixed), "fixed");
}

TEST(Planner, EstimateReportsCostCacheHits) {
  // The per-planner CostCache must actually absorb re-pricing during the
  // model-driven searches (subtree memo under the combined model).
  auto t = Planner().strategy(Strategy::kEstimate).plan(16);
  EXPECT_GT(t.planning().cache_hits, 0u);
}

TEST(Planner, SimdBackendIsPricedAtVectorWidth) {
  // kEstimate planning for the "simd" backend must run on the SIMD cost
  // model at the runtime-dispatched width; on a host that dispatches to
  // scalar the two models coincide, so only agreement is asserted there.
  const int n = 10;
  auto t = Planner().strategy(Strategy::kEstimate).backend("simd").plan(n);
  model::CombinedModel model;
  model.vector_width = simd::vector_width(simd::active_level());
  search::DpOptions options;
  options.max_parts = 4;
  const auto direct = search::dp_search(
      n, [&model](const core::Plan& p) { return model(p); }, options);
  EXPECT_EQ(t.plan(), direct.plan);
  EXPECT_DOUBLE_EQ(t.planning().cost, direct.cost);
}

}  // namespace
}  // namespace whtlab::api
