// Pseudo-PAPI event collection.
//
// The paper records, per algorithm, {cycles, retired instructions, L1 data
// cache misses} via PAPI 1.3.2.  whtlab bundles its stand-ins behind one
// facade so every experiment gathers the same triple the same way:
//
//   cycles        -> perf::measure_plan (real execution, serialized TSC)
//   instructions  -> weighted op count of the plan interpreter
//                    (core::count_ops; equals the instrumented execution)
//   l1/l2 misses  -> trace-driven cache simulation (cachesim::simulate_plan)
//                    in the Opteron geometry by default
//
// Each stand-in keeps the paper's semantics: cycles are timed on real
// executions, as PAPI's cycle counter was; the op count tallies exactly the
// operations the instruction-count model describes (core/instrumented.hpp);
// and the simulated misses replay the executor's own access sequence
// (core::reference_stream) through the chosen cache geometry.
#pragma once

#include "cachesim/cache.hpp"
#include "core/instrumented.hpp"
#include "core/plan.hpp"
#include "perf/measure.hpp"

namespace whtlab::perf {

struct EventConfig {
  MeasureOptions measure{};
  core::InstructionWeights weights{};
  cachesim::CacheConfig l1 = cachesim::CacheConfig::opteron_l1();
  cachesim::CacheConfig l2 = cachesim::CacheConfig::opteron_l2();
  bool collect_cycles = true;
  bool collect_misses = true;
  /// Report the minimum of the repetitions instead of the median.  The
  /// minimum of a deterministic workload is the least-interfered run and is
  /// markedly more stable on shared machines (used for the large sampled
  /// populations, where per-plan time budgets are tight).
  bool use_min_cycles = false;
};

struct EventCounts {
  double cycles = 0.0;        ///< median cycles of one execution
  double instructions = 0.0;  ///< weighted abstract op count
  core::OpCounts ops{};       ///< raw op tallies
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;
};

/// Gathers the full event triple for one plan.
EventCounts collect_events(const core::Plan& plan,
                           const EventConfig& config = {});

}  // namespace whtlab::perf
