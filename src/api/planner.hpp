// wht::Planner — the FFTW-style planning façade.
//
// One fluent builder maps planning strategies onto the repo's search/ and
// model/ modules and hands back a ready-to-run Transform:
//
//   auto t = wht::Planner()
//                .strategy(wht::Strategy::kMeasure)
//                .threads(4)
//                .plan(16);
//   t.execute(x);
//
// Strategy -> machinery:
//   kEstimate    search::dp_search over model::CombinedModel — no execution,
//                the paper's measurement-free autotuning suggestion
//   kMeasure     search::dp_search over perf-measured cycles — the WHT
//                package autotuner (Figure 1's "best")
//   kExhaustive  search::exhaustive_search over measured cycles — ground
//                truth, guarded to small n
//   kSampled     search::model_pruned_search — random candidates ranked by
//                the combined model, best fraction measured (Section 4)
//   kAnneal      search::anneal_search over the combined model — local
//                search by subtree mutation, measurement-free like kEstimate
//                but not bound by DP's optimal-substructure assumption
//   kFixed       the caller's plan verbatim (grammar string or core::Plan)
//
// A plan-oblivious backend (ExecutorBackend::plan_oblivious(), e.g. "fused")
// runs every plan of one size alike, so every strategy but kFixed returns
// core::Plan::iterative(n) for it: no search, no evaluations, no wisdom.
//
// The model-driven strategies (kEstimate, kAnneal) price the backend that
// will execute the plan: with backend("simd") the instruction term uses the
// SIMD cost model at the runtime-dispatched vector width
// (model/simd_cost.hpp) instead of scalar counts.  The measuring strategies
// get this for free — candidates are timed through the chosen backend.
//
// Execution is delegated to an ExecutorBackend resolved by name from the
// BackendRegistry; threads(>1) defaults the backend to "parallel".
#pragma once

#include <cstdint>
#include <string>

#include "api/executor_backend.hpp"
#include "api/transform.hpp"
#include "core/plan.hpp"
#include "perf/measure.hpp"
#include "search/local_search.hpp"

namespace whtlab::api {

/// Largest transform the planner will build: 2^26 doubles = 512 MiB.  The
/// Engine rejects requests beyond it before touching any state.
inline constexpr int kMaxLog2Size = 26;

class Planner {
 public:
  Planner() = default;

  /// Planning strategy; default kEstimate (cheap and measurement-free).
  Planner& strategy(Strategy s);

  /// Executor backend by registry name ("generated", "parallel", "simd",
  /// "fused", or anything registered later).  Unset: "generated", or
  /// "parallel" when threads() > 1.
  Planner& backend(std::string name);

  /// Worker threads handed to the backend (BackendOptions::threads).
  /// Values > 1 switch the default backend to "parallel".
  Planner& threads(int count);

  /// Largest unrolled leaf the searches may use (1..core::kMaxUnrolled).
  Planner& max_leaf(int k);

  /// Cap on split arity explored by the DP strategies; 0 = all compositions,
  /// -1 (default) = auto (binary/ternary, the WHT package's practice).
  /// Throws std::invalid_argument below -1 and at 1 (a split has >= 2 parts).
  Planner& max_parts(int parts);

  /// Random candidates drawn by kSampled (default 200).
  Planner& samples(int count);

  /// Fraction of kSampled candidates measured after model ranking
  /// (default 0.1; 1.0 measures everything = no pruning).
  Planner& keep_fraction(double fraction);

  /// RNG seed for kSampled and kAnneal (default 1).
  Planner& seed(std::uint64_t seed);

  /// Annealing schedule for kAnneal (iterations, temperature, cooling).
  /// AnnealOptions::max_leaf is overridden by Planner::max_leaf().
  Planner& anneal_options(const search::AnnealOptions& options);

  /// Measurement protocol for the measuring strategies.
  Planner& measure_options(const perf::MeasureOptions& options);

  /// Pins the plan (switches strategy to kFixed).
  Planner& fixed(core::Plan plan);

  /// Pins the plan from its grammar string, e.g. "split[small[4],small[4]]".
  Planner& fixed(const std::string& grammar);

  /// Wisdom plan cache (api/wisdom.hpp): before searching, plan(n) consults
  /// `path` for a plan recorded under (cpu level, n, strategy, backend) and
  /// uses it verbatim on a hit (planning().from_wisdom reports this); on a
  /// miss the strategy runs and the winner is appended to the file — so
  /// kMeasure / kAnneal cost is paid once per machine.  Lookups and inserts
  /// go through the process-wide WisdomRegistry (in-memory, merge-on-save,
  /// atomic file replacement), so concurrent planners sharing a file do not
  /// lose each other's winners.  Empty (the default) disables the cache;
  /// kFixed and plan-oblivious backends never consult it.
  Planner& wisdom_file(std::string path);

  /// Plans WHT(2^n) and returns the executable Transform.  Throws
  /// std::invalid_argument on bad arguments (n out of range, unknown
  /// backend, kFixed size mismatch, kExhaustive size too large on a backend
  /// that is not plan-oblivious).
  Transform plan(int n) const;

  /// kFixed convenience: plans for the pinned plan's own size.
  Transform plan() const;

 private:
  core::Plan search_plan(int n, const ExecutorBackend& backend,
                         PlanningInfo& info) const;

  Strategy strategy_ = Strategy::kEstimate;
  std::string backend_;  ///< empty = auto
  int threads_ = 1;
  int max_leaf_ = core::kMaxUnrolled;
  int max_parts_ = -1;  ///< -1 = auto
  int samples_ = 200;
  double keep_fraction_ = 0.1;
  std::uint64_t seed_ = 1;
  search::AnnealOptions anneal_{};
  perf::MeasureOptions measure_{};
  core::Plan fixed_;
  std::string wisdom_file_;  ///< empty = no wisdom cache
};

}  // namespace whtlab::api
