#include "api/planner.hpp"

#include <stdexcept>
#include <utility>

#include "api/wisdom.hpp"
#include "core/plan_io.hpp"
#include "model/cost_cache.hpp"
#include "simd/cpu_features.hpp"
#include "search/dp_search.hpp"
#include "search/pruned_search.hpp"
#include "util/rng.hpp"

namespace whtlab::api {

Planner& Planner::strategy(Strategy s) {
  strategy_ = s;
  return *this;
}

Planner& Planner::backend(std::string name) {
  backend_ = std::move(name);
  return *this;
}

Planner& Planner::threads(int count) {
  if (count < 1) throw std::invalid_argument("Planner: threads must be >= 1");
  threads_ = count;
  return *this;
}

Planner& Planner::samples(int count) {
  if (count < 1) throw std::invalid_argument("Planner: samples must be >= 1");
  samples_ = count;
  return *this;
}

Planner& Planner::keep_fraction(double fraction) {
  if (!(fraction > 0.0) || fraction > 1.0) {
    throw std::invalid_argument("Planner: keep_fraction must be in (0, 1]");
  }
  keep_fraction_ = fraction;
  return *this;
}

Planner& Planner::seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}

Planner& Planner::measure_options(const perf::MeasureOptions& options) {
  measure_ = options;
  return *this;
}

Planner& Planner::fixed(core::Plan plan) {
  if (!plan.valid()) throw std::invalid_argument("Planner: fixed plan is empty");
  fixed_ = std::move(plan);
  strategy_ = Strategy::kFixed;
  return *this;
}

Planner& Planner::fixed(const std::string& grammar) {
  return fixed(core::parse_plan(grammar));
}

Planner& Planner::wisdom_file(std::string path) {
  wisdom_file_ = std::move(path);
  return *this;
}

core::Plan Planner::search_plan(int n, const ExecutorBackend& backend,
                                PlanningInfo& info) const {
  // Candidates are timed through the backend the Transform will own, so a
  // plan autotuned with threads(8) is the winner under fork-join execution,
  // not under the sequential interpreter.
  const perf::MeasureOptions& measure = measure_;
  const auto measured_cost = [&measure, &backend](const core::Plan& candidate) {
    return measure_with_backend(backend, candidate, measure).cycles();
  };

  // One memo per search: the combined model skips subtrees it already
  // priced at a stride class (DP composes earlier winners), and sampled
  // search skips whole candidates it draws again.
  model::CostCache cost_cache;
  const auto record_cache = [&cost_cache, &info]() {
    const auto& stats = cost_cache.stats();
    info.cache_hits = stats.plan_hits + stats.subtree_hits;
  };

  switch (strategy_) {
    case Strategy::kEstimate: {
      search::DpOptions options;
      options.max_parts = 4;
      auto result = search::dp_search(
          n, model_with_backend(backend, &cost_cache), options);
      info.evaluations = result.evaluations;
      info.cost = result.cost;
      info.best_by_size = std::move(result.best_by_size);
      info.cost_by_size = std::move(result.cost_by_size);
      record_cache();
      return result.plan;
    }
    case Strategy::kMeasure: {
      search::DpOptions options;
      // Ternary splits while candidates are cheap to time, binary beyond
      // (the WHT package's practice; deeper splits remain reachable through
      // recursion).
      options.max_parts = n <= 12 ? 3 : 2;
      auto result = search::dp_search(n, measured_cost, options);
      info.evaluations = result.evaluations;
      info.cost = result.cost;
      info.best_by_size = std::move(result.best_by_size);
      info.cost_by_size = std::move(result.cost_by_size);
      return result.plan;
    }
    case Strategy::kSampled: {
      search::PrunedSearchOptions options;
      options.candidates = samples_;
      options.keep_fraction = keep_fraction_;
      options.measure_fn = measured_cost;
      options.cost_cache = &cost_cache;
      util::Rng rng(seed_);
      const auto result = search::model_pruned_search(
          n, model_with_backend(backend, &cost_cache), rng, options);
      info.evaluations = result.measured;
      info.cost = result.best_cycles;
      record_cache();
      return result.best_plan;
    }
    case Strategy::kFixed: {
      if (!fixed_.valid()) {
        throw std::invalid_argument(
            "Planner: kFixed strategy needs a plan — call fixed() first");
      }
      if (fixed_.log2_size() != n) {
        throw std::invalid_argument(
            "Planner: fixed plan computes WHT(2^" +
            std::to_string(fixed_.log2_size()) + "), but plan(" +
            std::to_string(n) + ") was requested");
      }
      info.evaluations = 0;
      info.cost = 0.0;
      return fixed_;
    }
  }
  throw std::logic_error("Planner: unknown strategy");
}

Transform Planner::plan(int n) const {
  if (n < 1 || n > kMaxLog2Size) {
    throw std::invalid_argument("Planner: n out of [1, " +
                                std::to_string(kMaxLog2Size) + "], got " +
                                std::to_string(n));
  }

  BackendOptions options;
  options.threads = threads_;
  const std::string name =
      !backend_.empty() ? backend_ : (threads_ > 1 ? "parallel" : "generated");
  auto backend = BackendRegistry::global().create(name, options);

  PlanningInfo info;
  info.strategy = strategy_;

  // A plan-oblivious backend runs every plan of one size alike, so a search
  // (or a wisdom entry) could only choose among equals.
  if (strategy_ != Strategy::kFixed && backend->plan_oblivious()) {
    return Transform(core::Plan::iterative(n), std::move(backend), info);
  }

  // Wisdom short-circuit: a recorded winner for this exact (cpu, n,
  // strategy, backend) tuple replaces the search; a miss runs the strategy
  // and persists the winner so the next process skips it.  All file access
  // goes through the process-wide registry (in-memory cache, merge-on-save,
  // atomic replacement — see api/wisdom.hpp).
  if (!wisdom_file_.empty() && strategy_ != Strategy::kFixed) {
    WisdomRegistry& registry = WisdomRegistry::global();
    const Wisdom::Key key{simd::to_string(simd::active_level()), n,
                          to_string(strategy_), name};
    if (const auto hit = registry.lookup(wisdom_file_, key)) {
      info.from_wisdom = true;
      return Transform(*hit, std::move(backend), info);
    }
    core::Plan chosen = search_plan(n, *backend, info);
    registry.insert(wisdom_file_, key, chosen);
    return Transform(std::move(chosen), std::move(backend), info);
  }

  core::Plan chosen = search_plan(n, *backend, info);

  return Transform(std::move(chosen), std::move(backend), info);
}

Transform Planner::plan() const {
  if (strategy_ != Strategy::kFixed || !fixed_.valid()) {
    throw std::invalid_argument(
        "Planner: plan() without a size requires a fixed() plan");
  }
  return plan(fixed_.log2_size());
}

}  // namespace whtlab::api
