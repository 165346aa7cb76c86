// Local search over the plan space (extension).
//
// DP assumes context-free optimal substructure; the paper notes that is
// only a heuristic.  Local search attacks the same space from the other
// side: mutate complete plans in place and keep improvements.  Three
// mutation kinds, chosen uniformly among those applicable:
//
//   * resample — replace a random subtree (size >= 2) with a fresh
//     recursive-split-uniform sample of the same size (ergodic: the root
//     can be resampled, so any plan is reachable);
//   * collapse — replace a random split of size <= max_leaf with the
//     unrolled codelet (the move toward the big-base-case optima the
//     autotuner favours);
//   * expand — split a random non-unit leaf into a random composition.
//
// The api::Planner runs it over a model cost (free evaluations, the paper's
// pruning theme); kMeasure, kExhaustive and kSampled search measurements.
#pragma once

#include <cstdint>
#include <functional>

#include "core/plan.hpp"
#include "model/cost_cache.hpp"
#include "util/rng.hpp"

namespace whtlab::search {

/// Applies one random mutation (resample / collapse / expand, as above).
/// The result is always a valid plan of the same total size.
core::Plan mutate_plan(const core::Plan& plan, int max_leaf, util::Rng& rng);

struct AnnealOptions {
  int iterations = 300;
  double initial_temperature = 0.10;  ///< relative-cost units (see accept rule)
  double cooling = 0.99;              ///< temperature *= cooling per step
  int max_leaf = core::kMaxUnrolled;
  /// Whole-candidate memo: annealing's mutate/reject cycles revisit plans
  /// constantly (a rejected move is often re-proposed a few steps later);
  /// when set, repeats are priced from the cache instead of re-evaluated.
  /// The caller must pair one cache with one cost function.
  model::CostCache* cost_cache = nullptr;
};

struct AnnealResult {
  core::Plan best;
  double best_cost = 0.0;
  std::uint64_t evaluations = 0;
  std::uint64_t accepted = 0;  ///< accepted moves (including improvements)
};

/// Simulated annealing from a random start.  `cost` must be positive.
/// Accept rule: always accept improvements; accept a regression with
/// probability exp(-(new-cur)/(T*cur)) — relative cost, so the schedule is
/// unit-free.
AnnealResult anneal_search(int n, const std::function<double(const core::Plan&)>& cost,
                           util::Rng& rng, const AnnealOptions& options = {});

}  // namespace whtlab::search
