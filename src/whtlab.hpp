// Umbrella header: the whole whtlab public API.
//
// Fine-grained headers remain the primary interface (include what you use);
// this exists for quick experiments and the examples.
#pragma once

#include "api/engine.hpp"                // IWYU pragma: export
#include "api/exec_context.hpp"          // IWYU pragma: export
#include "api/executor_backend.hpp"      // IWYU pragma: export
#include "api/planner.hpp"               // IWYU pragma: export
#include "api/transform.hpp"             // IWYU pragma: export
#include "api/wht.hpp"                   // IWYU pragma: export
#include "api/wisdom.hpp"                // IWYU pragma: export
#include "cachesim/cache.hpp"            // IWYU pragma: export
#include "cachesim/hierarchy.hpp"        // IWYU pragma: export
#include "cachesim/trace_runner.hpp"     // IWYU pragma: export
#include "core/codelet.hpp"              // IWYU pragma: export
#include "core/executor.hpp"             // IWYU pragma: export
#include "core/instrumented.hpp"         // IWYU pragma: export
#include "core/parallel_executor.hpp"    // IWYU pragma: export
#include "core/plan.hpp"                 // IWYU pragma: export
#include "core/plan_io.hpp"              // IWYU pragma: export
#include "core/plan_stats.hpp"           // IWYU pragma: export
#include "core/schedule.hpp"             // IWYU pragma: export
#include "core/sequency.hpp"             // IWYU pragma: export
#include "core/verify.hpp"               // IWYU pragma: export
#include "model/analytic_misses.hpp"     // IWYU pragma: export
#include "model/cache_model.hpp"         // IWYU pragma: export
#include "model/calibrate.hpp"           // IWYU pragma: export
#include "model/combined_model.hpp"      // IWYU pragma: export
#include "model/cost_cache.hpp"          // IWYU pragma: export
#include "model/instruction_model.hpp"   // IWYU pragma: export
#include "model/simd_cost.hpp"           // IWYU pragma: export
#include "model/space_stats.hpp"         // IWYU pragma: export
#include "perf/cycle_timer.hpp"          // IWYU pragma: export
#include "perf/events.hpp"               // IWYU pragma: export
#include "perf/measure.hpp"              // IWYU pragma: export
#include "search/dp_search.hpp"          // IWYU pragma: export
#include "search/enumerate.hpp"          // IWYU pragma: export
#include "search/exhaustive.hpp"         // IWYU pragma: export
#include "search/local_search.hpp"       // IWYU pragma: export
#include "search/pruned_search.hpp"      // IWYU pragma: export
#include "search/sampler.hpp"            // IWYU pragma: export
#include "search/space.hpp"              // IWYU pragma: export
#include "simd/cpu_features.hpp"         // IWYU pragma: export
#include "simd/fused_executor.hpp"       // IWYU pragma: export
#include "simd/simd_executor.hpp"        // IWYU pragma: export
#include "stats/correlation.hpp"         // IWYU pragma: export
#include "stats/descriptive.hpp"         // IWYU pragma: export
#include "stats/grid_opt.hpp"            // IWYU pragma: export
#include "stats/histogram.hpp"           // IWYU pragma: export
#include "stats/linear_solve.hpp"        // IWYU pragma: export
#include "stats/pruning.hpp"             // IWYU pragma: export
#include "stats/regression.hpp"          // IWYU pragma: export
#include "util/aligned_buffer.hpp"       // IWYU pragma: export
#include "util/bigint.hpp"               // IWYU pragma: export
#include "util/compositions.hpp"         // IWYU pragma: export
#include "util/rng.hpp"                  // IWYU pragma: export
