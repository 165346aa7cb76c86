// Combined performance model: alpha * Instructions + beta * Misses.
//
// Section 4 of the paper: for transforms that do not fit in L1, neither
// instruction count nor cache misses alone correlate strongly with cycles,
// but the linear combination alpha*I + beta*M does (rho = 0.92 at
// alpha = 1.00, beta = 0.05 on their Opteron; note only the ratio beta/alpha
// matters for Pearson correlation — the grid search in stats/grid_opt.hpp
// reproduces their Figure 9 sweep).
#pragma once

#include "core/plan.hpp"
#include "model/cache_model.hpp"
#include "model/cost_cache.hpp"
#include "model/instruction_model.hpp"
#include "model/simd_cost.hpp"

namespace whtlab::model {

struct CombinedModel {
  double alpha = 1.0;
  double beta = 0.05;
  core::InstructionWeights weights{};
  CacheModelConfig cache = CacheModelConfig::opteron_l1();
  /// > 1 prices the instruction term for the SIMD executor at that vector
  /// width (model/simd_cost.hpp); the miss term is unchanged (the SIMD walk
  /// touches the same cache lines in the same order).
  int vector_width = 1;
  /// Optional per-search memo (model/cost_cache.hpp): the miss term's
  /// recursion stores per-(subtree, stride) results so candidates sharing
  /// subtrees — DP's composed winners, the sampler's repeated shapes — are
  /// priced incrementally.  The caller owns the cache and must not share it
  /// across differently-configured models.
  CostCache* cost_cache = nullptr;

  /// Model value for a plan, computed from its description alone.
  double operator()(const core::Plan& plan) const {
    const double instructions =
        vector_width > 1 ? simd_instruction_count(plan, weights, vector_width)
                         : instruction_count(plan, weights);
    return alpha * instructions +
           beta * static_cast<double>(
                      direct_mapped_misses(plan, cache, cost_cache));
  }

  /// Combine pre-computed components (used when I and M are already known,
  /// e.g. over a sampled population).
  double combine(double instructions, double misses) const {
    return alpha * instructions + beta * misses;
  }
};

}  // namespace whtlab::model
