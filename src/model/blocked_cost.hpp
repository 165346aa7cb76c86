// Memory-pass cost model for the fused-schedule execution engine.
//
// The instruction-count models (instruction_model.hpp, simd_cost.hpp) price
// the butterfly work; that is the right currency while the working set fits
// in cache.  The fused engine targets the other regime: beyond L2 every
// full-array sweep is a round trip to memory, and runtime is proportional
// to *pass count*, not butterfly count.  blocked_cost() therefore prices a
// plan by lowering it (core/schedule.hpp) and charging
//
//   butterfly term:  N·n adds, divided by the backend's vector width
//   memory term:     per top-level round, N doubles moved, weighted by the
//                    slowest level the sweep's blocks stream through
//                    (L1-resident ≈ free, L2-resident cheap, beyond-L2 the
//                    dominant term)
//
// Because lowering re-blocks freely, two plans of equal size price
// identically — the model says, correctly, that under this engine the
// machine's cache geometry decides the schedule, not the tree shape.  So no
// fit of the weights could change a plan; they are a priori ratios.  The
// value of kEstimate pricing with this model is the *pass-count* term: it
// is what a cross-backend arbiter compares against the tree-walk models to
// decide when to switch engines.
#pragma once

#include "core/plan.hpp"
#include "core/schedule.hpp"

namespace whtlab::model {

struct BlockedCostConfig {
  core::BlockingConfig blocking{};  ///< geometry being priced
  int vector_width = 1;             ///< doubles retired per arithmetic op
  double butterfly_weight = 1.0;    ///< cost per scalar butterfly output
  /// Cost per double moved by one full-array sweep, by the cache level the
  /// sweep streams through.  Defaults follow the combined model's spirit
  /// (weights are ratios, not cycles): L1 sweeps are loop overhead only,
  /// beyond-L2 sweeps cost an order of magnitude more than in-cache work.
  double l1_sweep_weight = 0.25;
  double l2_sweep_weight = 1.0;
  double mem_sweep_weight = 8.0;
};

/// The model's feature row for one schedule: what each weight multiplies.
/// schedule_cost() is exactly the dot product of this row with
/// (butterfly_weight, l1_sweep_weight, l2_sweep_weight, mem_sweep_weight).
struct BlockedFeatures {
  double butterflies = 0.0;  ///< N·n / vector_width
  double l1_doubles = 0.0;   ///< sweeps·N when the array streams from L1
  double l2_doubles = 0.0;   ///< sweeps·N when it streams from L2
  double mem_doubles = 0.0;  ///< sweeps·N when it streams from memory
};

BlockedFeatures schedule_features(const core::Schedule& schedule,
                                  const BlockedCostConfig& config);

/// Features of the schedule WHT(2^n) lowers to under config.blocking.
BlockedFeatures blocked_features(int n, const BlockedCostConfig& config);

/// Model value of one fused execution of `schedule` under `config`.
double schedule_cost(const core::Schedule& schedule,
                     const BlockedCostConfig& config);

/// Lowers `plan` with config.blocking and prices the resulting schedule.
double blocked_cost(const core::Plan& plan, const BlockedCostConfig& config);

}  // namespace whtlab::model
