// Exhaustive search over the full plan space (small sizes).
//
// Ground truth for validating the DP heuristic: DP assumes the best subplan
// is best in every context, which holds for decomposable model costs but
// not for measured runtime.  Exhaustive search makes the gap measurable:
// the DP tests check dp_search against it.  Practical to ~n = 8 (a(8) ~ 17k
// plans with all leaf sizes admissible).
#pragma once

#include <cstdint>
#include <functional>

#include "core/plan.hpp"

namespace whtlab::search {

struct ExhaustiveResult {
  core::Plan best;
  double best_cost = 0.0;
  core::Plan worst;
  double worst_cost = 0.0;
  std::uint64_t evaluated = 0;
};

/// Evaluates every plan of size 2^n; returns the extremes.
ExhaustiveResult exhaustive_search(
    int n, const std::function<double(const core::Plan&)>& cost,
    int max_leaf = core::kMaxUnrolled);

}  // namespace whtlab::search
