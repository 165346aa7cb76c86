// wht::Planner: strategy -> search-module mapping, backend selection rules,
// option validation, and determinism of the model-driven strategies.
#include "api/planner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/verify.hpp"
#include "model/combined_model.hpp"
#include "search/dp_search.hpp"
#include "search/pruned_search.hpp"
#include "simd/cpu_features.hpp"
#include "util/rng.hpp"

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
  EXPECT_THROW(Planner().samples(0), std::invalid_argument);
  EXPECT_THROW(Planner().keep_fraction(0.0), std::invalid_argument);
  EXPECT_THROW(Planner().keep_fraction(1.5), std::invalid_argument);
  EXPECT_THROW(Planner().plan(0), std::invalid_argument);
  EXPECT_THROW(Planner().plan(27), std::invalid_argument);
}

TEST(Strategy, ToStringCoversAllValues) {
  EXPECT_STREQ(to_string(Strategy::kEstimate), "estimate");
  EXPECT_STREQ(to_string(Strategy::kMeasure), "measure");
  EXPECT_STREQ(to_string(Strategy::kSampled), "sampled");
  EXPECT_STREQ(to_string(Strategy::kFixed), "fixed");
  for (const Strategy strategy : {Strategy::kEstimate, Strategy::kMeasure,
                                  Strategy::kSampled, Strategy::kFixed}) {
    EXPECT_EQ(strategy_from_string(to_string(strategy)), strategy);
  }
  // The retired searches' names are refused, and the refusal lists the
  // four that remain.
  for (const char* retired : {"anneal", "exhaustive"}) {
    try {
      strategy_from_string(retired);
      ADD_FAILURE() << retired << " parsed";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(retired), std::string::npos) << message;
      EXPECT_NE(message.find("valid: estimate, measure, sampled, fixed"),
                std::string::npos)
          << message;
    }
  }
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

TEST(Planner, SampledRanksByTheBackendModel) {
  // kSampled ranks its candidates by the rule kEstimate prices with
  // (model_with_backend), so on "simd" it ranks at the dispatched vector
  // width.  Keeping one candidate of 200 makes the pick the model's top
  // rank, whatever the measurement reads.  On a host that dispatches
  // scalar, width 1 prices like a bare CombinedModel, so there the check
  // cannot tell the two rankings apart.
  perf::MeasureOptions cheap;
  cheap.repetitions = 1;
  cheap.warmup = 0;
  cheap.inner_loop = 1;
  const auto simd = BackendRegistry::global().create("simd");
  for (const int n : {8, 10, 12, 14, 16}) {
    auto t = Planner()
                 .strategy(Strategy::kSampled)
                 .backend("simd")
                 .samples(200)
                 .keep_fraction(0.001)
                 .seed(1)
                 .measure_options(cheap)
                 .plan(n);
    EXPECT_EQ(t.planning().evaluations, 1u) << n;

    model::CostCache cache;
    search::PrunedSearchOptions options;
    options.candidates = 200;
    options.keep_fraction = 0.001;
    options.measure = cheap;
    options.cost_cache = &cache;
    util::Rng rng(1);
    const auto direct = search::model_pruned_search(
        n, model_with_backend(*simd, &cache), rng, options);
    EXPECT_EQ(t.plan().to_string(), direct.best_plan.to_string()) << n;
  }
}

}  // namespace
}  // namespace whtlab::api
