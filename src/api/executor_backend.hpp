// Pluggable execution backends for the wht::Transform façade.
//
// ExecutorBackend puts every way of running a plan — the plan interpreter
// over the generated codelets, its fork-join and SIMD variants, the fused
// schedule engine — behind one polymorphic interface so a Transform can own
// "how to run" as a value, and BackendRegistry makes the set open-ended:
// GPU / sharded backends register under a string key and become reachable
// from the Planner and the Engine without touching callers.
//
// Execution contract (the concurrent-serving redesign): a backend is an
// immutable recipe.  run()/run_many() are const and re-entrant — one
// instance may execute any number of plans from any number of threads at
// once — and every per-call mutable need (scratch buffers) goes through the
// caller-supplied wht::ExecContext.  Backends may memoize derived immutable
// state (the "fused" backend's lowered schedules) behind their own internal
// synchronization; they must not keep per-call state in members.
//
// Built-in keys (always registered) — exactly the backends wht::Engine
// serves:
//   "generated"     sequential interpreter, build-time generated codelets
//   "parallel"      fork-join executor honouring BackendOptions::threads
//   "simd"          vectorized tree walk + batch-interleaved run_many with
//                   runtime CPUID dispatch (AVX-512F / AVX2 / scalar; see
//                   simd/simd_executor.hpp); threads fan out batch chunks
//   "fused"         cache-blocked stage-fused schedule engine: each size
//                   runs one flat blocked schedule (core/schedule.hpp) on
//                   the fused SIMD kernels (simd/fused_executor.hpp), whatever
//                   the plan, so the Planner searches nothing for it — the
//                   memory-bound big-n engine; threads fan out batch chunks
//                   and split one vector beyond the largest cache block
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/exec_context.hpp"
#include "core/plan.hpp"
#include "perf/measure.hpp"

namespace whtlab::model {
class CostCache;
}  // namespace whtlab::model

namespace whtlab::api {

/// Knobs a factory may honour when instantiating a backend.
struct BackendOptions {
  int threads = 1;  ///< worker threads ("parallel"; "simd" batches; "fused"
                    ///< batches and single vectors beyond the cache blocks)
};

/// One way of running a plan.  Instances are immutable after construction:
/// run() and run_many() are const, re-entrant, and safe to invoke
/// concurrently — per-call mutable state lives in the ExecContext the
/// caller passes in.
class ExecutorBackend {
 public:
  virtual ~ExecutorBackend() = default;

  /// Registry key this instance was created under.
  virtual const std::string& name() const = 0;

  /// Transforms the plan.size() elements x[0], x[stride], ... in place.
  /// `ctx` supplies scratch; callers serving from multiple threads pass one
  /// context per thread.
  virtual void run(const core::Plan& plan, double* x, std::ptrdiff_t stride,
                   ExecContext& ctx) const = 0;

  /// Batched transform: `count` vectors, vector v at x + v*dist.  The
  /// default runs them one by one; backends with a faster batch shape
  /// override it ("simd" interleaves vectors into SIMD lanes, "parallel",
  /// "simd" and "fused" fan vectors out across threads).  Callers guarantee
  /// |dist| >= size.
  virtual void run_many(const core::Plan& plan, double* x, std::size_t count,
                        std::ptrdiff_t dist, ExecContext& ctx) const {
    for (std::size_t v = 0; v < count; ++v) {
      run(plan, x + static_cast<std::ptrdiff_t>(v) * dist, 1, ctx);
    }
  }

  /// Context-free conveniences for one-shot callers (each call uses a fresh
  /// context, so scratch is not reused — serving loops should hold a
  /// context instead).
  void run(const core::Plan& plan, double* x, std::ptrdiff_t stride = 1) const {
    ExecContext ctx;
    run(plan, x, stride, ctx);
  }
  void run_many(const core::Plan& plan, double* x, std::size_t count,
                std::ptrdiff_t dist) const {
    ExecContext ctx;
    run_many(plan, x, count, dist, ctx);
  }

  /// Doubles retired per arithmetic instruction on this backend's hot path
  /// (1 for scalar backends).  The Planner's model-driven strategies feed
  /// this into CombinedModel::vector_width so candidates are priced for the
  /// backend that will run them — custom vectorized backends get correct
  /// pricing by overriding this, not by being named "simd".
  virtual int vector_width() const { return 1; }

  /// Optional full replacement for the Planner's model-driven pricing: a
  /// callable mapping a candidate plan to this backend's model cost, or an
  /// empty function (the default) to use the CombinedModel at
  /// vector_width().  No built-in backend overrides it; it is the seam
  /// through which a custom backend (or a test's scripted one) prices its
  /// own plans.
  virtual std::function<double(const core::Plan&)> cost_model() const {
    return {};
  }

  /// True when run() executes the same computation for every plan of one
  /// size, so no plan is better than another ("fused": the schedule is a
  /// property of n and the cache geometry).  The Planner then searches
  /// nothing for this backend: every strategy but kFixed returns
  /// core::Plan::iterative(n) with no evaluations and no wisdom entry.
  virtual bool plan_oblivious() const { return false; }

  /// Serve-shape pricing hook for the Engine's cross-backend arbiter
  /// (api/engine.hpp): the predicted per-vector cost ratio of one
  /// run_many(plan, count) over `count` independent run() calls with
  /// `threads` workers available.  1.0 (the default) means batching buys
  /// nothing; "parallel"/"simd"/"fused" return 1/workers for their
  /// across-vector fan-out, and "simd" additionally prices the W-fold
  /// overhead amortization of its batch-interleaved regime.
  virtual double batch_factor(const core::Plan& plan, std::size_t count,
                              int threads) const {
    (void)plan;
    (void)count;
    (void)threads;
    return 1.0;
  }
};

/// String-keyed factory table.  The global() registry is pre-populated with
/// the built-in backends; registration is explicit (no static-initializer
/// self-registration, which a static library would silently drop).
class BackendRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<ExecutorBackend>(const BackendOptions&)>;

  /// Process-wide registry holding the built-ins.  Thread-safe.
  static BackendRegistry& global();

  /// Registers `factory` under `name`.  Throws std::invalid_argument if the
  /// name is already taken (built-ins cannot be shadowed).
  void register_factory(const std::string& name, Factory factory);

  /// Instantiates the backend registered under `name`.  Throws
  /// std::invalid_argument listing the known names when `name` is unknown.
  std::unique_ptr<ExecutorBackend> create(const std::string& name,
                                          const BackendOptions& options = {}) const;

  bool contains(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

 private:
  BackendRegistry();  ///< registers the built-ins

  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Runs the perf measurement protocol (warmup, batched repetitions,
/// master-copy restore; see perf/measure.hpp) with `backend` as the
/// execution engine, so e.g. "parallel" is timed on its parallel code path.
/// repetitions must be >= 1.  Used by Transform::measure and by the
/// Planner's measuring strategies (candidates are timed on the backend the
/// planned Transform will actually use).  One context serves the whole
/// protocol, so scratch warms up with the plan.
perf::MeasureResult measure_with_backend(const ExecutorBackend& backend,
                                         const core::Plan& plan,
                                         const perf::MeasureOptions& options = {});

/// The model-driven price of a plan on `backend`, the one rule the Planner's
/// model strategies search with and the Engine's model-priced arbiter ranks
/// with: the backend's own cost_model() when it has one, otherwise the
/// CombinedModel at the backend's vector_width().  `cache` (may be nullptr)
/// memoizes the CombinedModel's per-subtree miss recursion across one
/// search; it must outlive the returned callable.
std::function<double(const core::Plan&)> model_with_backend(
    const ExecutorBackend& backend, model::CostCache* cache = nullptr);

}  // namespace whtlab::api

/// Terse spelling used throughout examples and docs: wht::Planner, ...
namespace wht = whtlab::api;
