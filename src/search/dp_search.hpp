// Dynamic-programming autotuner — the WHT package's "best plan" search.
//
// The original package (Johnson & Püschel, ICASSP 2000) finds fast plans by
// dynamic programming over transform sizes: the best plan of size 2^m is
// assembled from the already-found best subplans of its composition parts,
// and the candidates are compared by an arbitrary cost — measured runtime in
// the package and in Figure 1; a performance model here as well (which makes
// the search measurement-free, the paper's concluding suggestion).
//
// As the paper notes, DP is a heuristic: it assumes the best subplan is
// best in every calling context (stride/cache context breaks this in
// general), which is exactly why Figure 1's "best" is a lower envelope
// found by search, not a proven optimum.
//
// The number of compositions of m is 2^(m-1); with runtime costs this is
// prohibitive for large m, so candidates can be capped by `max_parts`
// (the package's practice — binary and ternary splits carry nearly all of
// the benefit since deeper splits are reachable through recursion).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/plan.hpp"

namespace whtlab::search {

using CostFn = std::function<double(const core::Plan&)>;

struct DpOptions {
  int max_leaf = core::kMaxUnrolled;
  /// Cap on composition parts per split; 0 = all 2^(m-1) compositions.
  /// The walk steps over the compositions the cap excludes, so a capped
  /// search costs the candidates it prices (sum over m of C(m-1, t-1),
  /// t = 2..max_parts), not 2^(m-1) per size.
  int max_parts = 0;
};

struct DpResult {
  core::Plan plan;              ///< best plan found for size 2^n
  double cost = 0.0;            ///< its cost
  std::vector<core::Plan> best_by_size;   ///< index m = best plan of size 2^m
  std::vector<double> cost_by_size;       ///< index m = its cost
  std::uint64_t evaluations = 0;          ///< cost-function invocations
};

/// Runs the DP search for WHT(2^n) with the given cost function.
DpResult dp_search(int n, const CostFn& cost, const DpOptions& options = {});

}  // namespace whtlab::search
