// wht::Transform — a planned WHT ready to execute (the FFTW plan analogue).
//
// A Transform owns everything needed to apply WHT(2^n) repeatedly: the
// chosen core::Plan and the ExecutorBackend that runs it.  Obtain one from
// wht::Planner (planner.hpp); execute it as often as you like:
//
//   auto t = wht::Planner().strategy(wht::Strategy::kMeasure).plan(16);
//   t.execute(x);                       // in place, 2^16 doubles
//   t.execute(x, stride);               // strided in place
//   t.execute_many(batch, 32);          // 32 contiguous vectors
//   auto y = t.apply(input);            // copying convenience
//
// Transforms are move-only (they own a backend instance) and cheap to move.
// Execution is const and re-entrant: plan and backend are immutable after
// planning, and all per-call state lives in a wht::ExecContext — either one
// the caller passes explicitly, or the calling thread's own context, which
// every context-less call on that thread borrows without taking a lock (a
// call re-entered from inside one runs on a fresh context instead).  Share
// one Transform across any number of threads with no external locking;
// plan once, serve everywhere (planning is the expensive step, and
// wht::Engine builds the process-wide serving layer on exactly this
// property — see api/engine.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/exec_context.hpp"
#include "api/executor_backend.hpp"
#include "core/plan.hpp"
#include "perf/measure.hpp"

namespace whtlab::api {

/// How the Planner chooses a plan (see planner.hpp for the mapping onto the
/// search/ and model/ modules).
enum class Strategy {
  kEstimate,    ///< cost-model DP — no measurement, instant
  kMeasure,     ///< DP over measured runtime — the WHT package autotuner
  kExhaustive,  ///< measure every plan in the space (small sizes only)
  kSampled,     ///< random sample, model-pruned, best survivors measured
  kAnneal,      ///< simulated annealing over the cost model (local search)
  kFixed,       ///< caller-supplied plan, no search
};

/// Human-readable strategy name ("estimate", "measure", ...).
const char* to_string(Strategy strategy);

/// Inverse of to_string: parses "estimate" / "measure" / "exhaustive" /
/// "sampled" / "anneal" / "fixed".  Throws std::invalid_argument listing the
/// valid names on anything else (the shared CLI-driver parser — see
/// bench/bench_plan_time.cpp, bench/bench_serve.cpp).
Strategy strategy_from_string(const std::string& name);

/// What planning did, kept on the Transform for reporting.
struct PlanningInfo {
  Strategy strategy = Strategy::kFixed;
  std::uint64_t evaluations = 0;  ///< cost-function / measurement invocations
  double cost = 0.0;              ///< winning plan's cost (model units or cycles)
  bool from_wisdom = false;       ///< plan came from the wisdom cache, no search ran
  std::uint64_t cache_hits = 0;   ///< CostCache lookups served without re-pricing

  /// The DP strategies' winners-by-size table (index m = best plan of size
  /// 2^m and its cost; entries below min size are empty / 0).  The old
  /// examples/autotune output, re-exposed; empty for non-DP strategies.
  std::vector<core::Plan> best_by_size;
  std::vector<double> cost_by_size;
};

class Transform {
 public:
  Transform() = default;  ///< empty; valid() is false, execute() throws

  Transform(Transform&&) noexcept = default;
  Transform& operator=(Transform&&) noexcept = default;
  Transform(const Transform&) = delete;
  Transform& operator=(const Transform&) = delete;

  bool valid() const { return backend_ != nullptr; }

  /// The plan this transform executes (round-trips through core::plan_io).
  const core::Plan& plan() const { return plan_; }
  int log2_size() const { return plan_.log2_size(); }
  std::uint64_t size() const { return plan_.size(); }

  const std::string& backend_name() const { return backend_name_; }
  const PlanningInfo& planning() const { return info_; }

  /// The owned backend (for serve-time pricing: cost_model(),
  /// batch_factor(), vector_width()).  Valid only while valid().
  const ExecutorBackend& backend() const { return *backend_; }

  /// In-place transform of x[0 .. size()).  Const and re-entrant: any number
  /// of threads may execute one Transform concurrently (on distinct data);
  /// each call borrows the calling thread's ExecContext.
  void execute(double* x) const;

  /// In-place transform of the size() elements x[0], x[stride], ...
  void execute(double* x, std::ptrdiff_t stride) const;

  /// Batched transform: `count` vectors, vector v starting at x + v*dist
  /// (dist in elements; defaults to size(), i.e. contiguous packing).
  /// Delegates to the backend's batch path: "simd" interleaves vectors into
  /// SIMD lanes, "parallel"/"simd"/"fused" fan vectors out across threads;
  /// others run vectors one by one.
  void execute_many(double* x, std::size_t count) const;
  void execute_many(double* x, std::size_t count, std::ptrdiff_t dist) const;

  /// Explicit-context variants: the caller owns per-call state (scratch)
  /// instead of the calling thread's context — the serving-loop shape.
  void execute(double* x, std::ptrdiff_t stride, ExecContext& ctx) const;
  void execute_many(double* x, std::size_t count, std::ptrdiff_t dist,
                    ExecContext& ctx) const;

  /// Out-of-place: out[0 .. size()) = WHT(in[0 .. size())), for any overlap
  /// of `in` and `out` (out == in degenerates to execute).
  void execute_copy(const double* in, double* out) const;

  /// Copying convenience; stages through the calling thread's context
  /// staging.  in.size() must equal size().
  std::vector<double> apply(const std::vector<double>& in) const;

  /// Measures this transform with the perf protocol (warmup, batched reps,
  /// master-copy restore; see perf/measure.hpp) — but driven through the
  /// owned backend, so "parallel" measures the parallel code path.
  perf::MeasureResult measure(const perf::MeasureOptions& options = {}) const;

 private:
  friend class Planner;

  Transform(core::Plan plan, std::unique_ptr<ExecutorBackend> backend,
            PlanningInfo info);

  void ensure_valid() const;

  /// Runs `run(ctx)` on the calling thread's context, or on a fresh one when
  /// a context-less call is already running on this thread.
  template <typename Run>
  void with_thread_context(Run&& run) const;

  core::Plan plan_;
  std::unique_ptr<ExecutorBackend> backend_;
  std::string backend_name_;
  PlanningInfo info_;
};

}  // namespace whtlab::api
