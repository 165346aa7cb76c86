#include "api/planner.hpp"

#include <stdexcept>
#include <utility>

#include "api/wisdom.hpp"
#include "core/plan_io.hpp"
#include "model/combined_model.hpp"
#include "simd/cpu_features.hpp"
#include "search/dp_search.hpp"
#include "search/exhaustive.hpp"
#include "search/local_search.hpp"
#include "search/pruned_search.hpp"
#include "util/rng.hpp"

namespace whtlab::api {

namespace {

/// Beyond this the full space is too large to measure exhaustively
/// (a(10) is already ~10^6 plans; see search/exhaustive.hpp).
constexpr int kMaxExhaustive = 8;

}  // namespace

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

Planner& Planner::max_leaf(int k) {
  if (k < 1 || k > core::kMaxUnrolled) {
    throw std::invalid_argument("Planner: max_leaf out of [1, " +
                                std::to_string(core::kMaxUnrolled) + "]");
  }
  max_leaf_ = k;
  return *this;
}

Planner& Planner::max_parts(int parts) {
  // A split has at least two parts, so a cap of 1 leaves the DP nothing to
  // compose above the largest leaf.
  if (parts < -1 || parts == 1) {
    throw std::invalid_argument("Planner: max_parts must be -1, 0 or >= 2");
  }
  max_parts_ = parts;
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

Planner& Planner::anneal_options(const search::AnnealOptions& options) {
  if (options.iterations < 1) {
    throw std::invalid_argument("Planner: anneal iterations must be >= 1");
  }
  anneal_ = options;
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
  // priced at a stride class (DP composes earlier winners), and anneal and
  // sampled search skip whole candidates they revisit.
  model::CostCache cost_cache;
  const auto record_cache = [&cost_cache, &info]() {
    const auto& stats = cost_cache.stats();
    info.cache_hits = stats.plan_hits + stats.subtree_hits;
  };

  switch (strategy_) {
    case Strategy::kEstimate: {
      search::DpOptions options;
      options.max_leaf = max_leaf_;
      options.max_parts = max_parts_ < 0 ? 4 : max_parts_;
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
      options.max_leaf = max_leaf_;
      // Ternary splits while candidates are cheap to time, binary beyond
      // (the WHT package's practice; deeper splits remain reachable through
      // recursion).
      options.max_parts = max_parts_ < 0 ? (n <= 12 ? 3 : 2) : max_parts_;
      auto result = search::dp_search(n, measured_cost, options);
      info.evaluations = result.evaluations;
      info.cost = result.cost;
      info.best_by_size = std::move(result.best_by_size);
      info.cost_by_size = std::move(result.cost_by_size);
      return result.plan;
    }
    case Strategy::kExhaustive: {
      if (n > kMaxExhaustive) {
        throw std::invalid_argument(
            "Planner: exhaustive strategy is practical only for n <= " +
            std::to_string(kMaxExhaustive) + ", got n = " + std::to_string(n) +
            " (use kMeasure or kSampled)");
      }
      const auto result = search::exhaustive_search(n, measured_cost, max_leaf_);
      info.evaluations = result.evaluated;
      info.cost = result.best_cost;
      return result.best;
    }
    case Strategy::kSampled: {
      search::PrunedSearchOptions options;
      options.candidates = samples_;
      options.keep_fraction = keep_fraction_;
      options.max_leaf = max_leaf_;
      options.measure_fn = measured_cost;
      options.cost_cache = &cost_cache;
      model::CombinedModel model;
      model.cost_cache = &cost_cache;
      util::Rng rng(seed_);
      const auto result = search::model_pruned_search(
          n, [&model](const core::Plan& candidate) { return model(candidate); },
          rng, options);
      info.evaluations = result.measured;
      info.cost = result.best_cycles;
      record_cache();
      return result.best_plan;
    }
    case Strategy::kAnneal: {
      search::AnnealOptions options = anneal_;
      options.max_leaf = max_leaf_;
      options.cost_cache = &cost_cache;
      util::Rng rng(seed_);
      const auto result = search::anneal_search(
          n, model_with_backend(backend, &cost_cache), rng, options);
      info.evaluations = result.evaluations;
      info.cost = result.best_cost;
      record_cache();
      return result.best;
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
    const auto hit = registry.lookup(wisdom_file_, key);
    // The key does not carry every planner knob (see wisdom.hpp), but the
    // leaf cap is a hard constraint, not a preference: a cached winner
    // using larger codelets than this planner allows is a miss, and the
    // re-search overwrites it.
    if (hit && hit->max_leaf_log2() <= max_leaf_) {
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
