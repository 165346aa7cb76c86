#include "api/executor_backend.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/executor.hpp"
#include "core/parallel_executor.hpp"
#include "core/schedule.hpp"
#include "model/combined_model.hpp"
#include "model/simd_cost.hpp"
#include "simd/fused_executor.hpp"
#include "simd/simd_executor.hpp"
#include "util/parallel_chunks.hpp"

namespace whtlab::api {

namespace {

/// Across-vector fan-out pricing shared by the threaded batch backends: a
/// batch of `count` splits over min(threads, count) workers.
double fanout_factor(std::size_t count, int threads) {
  const std::size_t workers =
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   count, static_cast<std::size_t>(
                                              std::max(threads, 1))));
  return 1.0 / static_cast<double>(workers);
}

/// Sequential interpreter over the generated codelets.
class GeneratedBackend final : public ExecutorBackend {
 public:
  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x, std::ptrdiff_t stride,
           ExecContext& /*ctx*/) const override {
    core::execute_node(plan.root(), x, stride, core::codelet_table());
  }

 private:
  std::string name_ = "generated";
};

/// Fork-join executor over the root split.
class ParallelBackend final : public ExecutorBackend {
 public:
  explicit ParallelBackend(int threads) : threads_(threads) {}

  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x, std::ptrdiff_t stride,
           ExecContext& /*ctx*/) const override {
    core::execute_parallel_strided(plan, x, stride, threads_);
  }

  /// Batches parallelize across vectors, not within one transform: each
  /// worker runs whole transforms sequentially (no per-factor join points),
  /// the ROADMAP's batch-parallel execute_many.
  void run_many(const core::Plan& plan, double* x, std::size_t count,
                std::ptrdiff_t dist, ExecContext& /*ctx*/) const override {
    const auto& table = core::codelet_table();
    util::parallel_chunks(
        count, threads_, [&plan, &table, x, dist](std::uint64_t begin,
                                                  std::uint64_t end) {
          for (std::uint64_t v = begin; v < end; ++v) {
            core::execute_node(plan.root(),
                               x + static_cast<std::ptrdiff_t>(v) * dist, 1,
                               table);
          }
        });
  }

  double batch_factor(const core::Plan& /*plan*/, std::size_t count,
                      int threads) const override {
    return fanout_factor(count, std::min(threads, threads_));
  }

 private:
  std::string name_ = "parallel";
  int threads_;
};

/// Vectorized tree walk with runtime CPUID dispatch; batches run
/// interleaved in SIMD lanes (simd/simd_executor.hpp).
class SimdBackend final : public ExecutorBackend {
 public:
  explicit SimdBackend(int threads) : threads_(threads) {}

  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x, std::ptrdiff_t stride,
           ExecContext& /*ctx*/) const override {
    simd::execute(plan, x, stride);
  }

  void run_many(const core::Plan& plan, double* x, std::size_t count,
                std::ptrdiff_t dist, ExecContext& ctx) const override {
    simd::execute_many(plan, x, count, dist, threads_, &ctx.scratch_arena());
  }

  int vector_width() const override {
    return simd::vector_width(simd::active_level());
  }

  /// Thread fan-out, times the interleave amortization when this shape runs
  /// batch-interleaved: W transforms in lockstep retire ~1/W of the scalar
  /// walk's instruction stream each, while the per-vector vectorized walk
  /// pays its scalar prefixes — model::interleave_amortization prices the
  /// ratio.  This is what lets the Engine's arbiter route tiny-n batches
  /// here while big single vectors go to "fused".  Interleaved batches fan
  /// threads over the W-vector *groups* (execute_many's actual unit), not
  /// over vectors — count/W groups cap the parallelism.
  double batch_factor(const core::Plan& plan, std::size_t count,
                      int threads) const override {
    if (simd::batch_interleaves(plan, count)) {
      const std::size_t groups =
          std::max<std::size_t>(count / static_cast<std::size_t>(vector_width()), 1);
      return fanout_factor(groups, std::min(threads, threads_)) *
             model::interleave_amortization(plan, vector_width());
    }
    return fanout_factor(count, std::min(threads, threads_));
  }

 private:
  std::string name_ = "simd";
  int threads_;
};

/// Cache-blocked stage-fused engine: every plan of one size runs one flat
/// blocked schedule (a property of the size and the probed cache geometry,
/// not of the tree shape), executed by the fused SIMD kernels with
/// scalar/strided fallback.
class FusedBackend final : public ExecutorBackend {
 public:
  explicit FusedBackend(int threads)
      : threads_(threads), blocking_(simd::detect_blocking()) {}

  const std::string& name() const override { return name_; }

  /// threads_ > 1 splits one vector beyond the largest cache block across
  /// threads (simd::execute_fused); smaller vectors run on the caller.
  void run(const core::Plan& plan, double* x, std::ptrdiff_t stride,
           ExecContext& /*ctx*/) const override {
    simd::execute_fused(schedule_for(plan), x, stride, simd::active_level(),
                        threads_);
  }

  void run_many(const core::Plan& plan, double* x, std::size_t count,
                std::ptrdiff_t dist, ExecContext& /*ctx*/) const override {
    simd::execute_fused_many(schedule_for(plan), x, count, dist, threads_);
  }

  int vector_width() const override {
    return simd::vector_width(simd::active_level());
  }

  double batch_factor(const core::Plan& /*plan*/, std::size_t count,
                      int threads) const override {
    return fanout_factor(count, std::min(threads, threads_));
  }

  bool plan_oblivious() const override { return true; }

 private:
  /// Schedules depend only on (size, blocking) — immutable derived state.
  /// Each size lowers once, under schedule_mutex_ so racing first runs
  /// lower it once, and is then published through schedules_[n]: every
  /// later run is one acquire load.  Published schedules are never
  /// replaced or freed before the backend.
  const core::Schedule& schedule_for(const core::Plan& plan) const {
    const int n = plan.log2_size();
    if (n >= kScheduleSlots) {
      throw std::invalid_argument("fused: plan size 2^" + std::to_string(n) +
                                  " is not addressable");
    }
    if (const core::Schedule* schedule =
            schedules_[n].load(std::memory_order_acquire)) {
      return *schedule;
    }
    const std::lock_guard<std::mutex> lock(schedule_mutex_);
    if (!lowered_[n]) {
      lowered_[n] = std::make_unique<const core::Schedule>(
          core::lower_size(n, blocking_));
      schedules_[n].store(lowered_[n].get(), std::memory_order_release);
    }
    return *lowered_[n];
  }

  /// One slot per log2 size a 64-bit element count can address.
  static constexpr int kScheduleSlots = 64;

  std::string name_ = "fused";
  int threads_;
  core::BlockingConfig blocking_;
  mutable std::mutex schedule_mutex_;
  /// Owns every lowered schedule; guarded by schedule_mutex_.
  mutable std::unique_ptr<const core::Schedule> lowered_[kScheduleSlots];
  mutable std::atomic<const core::Schedule*> schedules_[kScheduleSlots];
};

}  // namespace

struct BackendRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, Factory> factories;
};

BackendRegistry::BackendRegistry() : impl_(std::make_shared<Impl>()) {
  impl_->factories["generated"] = [](const BackendOptions&) {
    return std::make_unique<GeneratedBackend>();
  };
  impl_->factories["parallel"] = [](const BackendOptions& options) {
    return std::make_unique<ParallelBackend>(std::max(options.threads, 1));
  };
  impl_->factories["simd"] = [](const BackendOptions& options) {
    return std::make_unique<SimdBackend>(std::max(options.threads, 1));
  };
  impl_->factories["fused"] = [](const BackendOptions& options) {
    return std::make_unique<FusedBackend>(std::max(options.threads, 1));
  };
}

BackendRegistry& BackendRegistry::global() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::register_factory(const std::string& name, Factory factory) {
  if (name.empty()) throw std::invalid_argument("backend name must be non-empty");
  if (!factory) throw std::invalid_argument("backend factory must be callable");
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  if (!impl_->factories.emplace(name, std::move(factory)).second) {
    throw std::invalid_argument("backend '" + name + "' is already registered");
  }
}

std::unique_ptr<ExecutorBackend> BackendRegistry::create(
    const std::string& name, const BackendOptions& options) const {
  Factory factory;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto it = impl_->factories.find(name);
    if (it != impl_->factories.end()) factory = it->second;
  }
  if (!factory) {
    std::string known;
    for (const auto& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("unknown executor backend '" + name +
                                "' (registered: " + known + ")");
  }
  auto backend = factory(options);
  if (!backend) {
    throw std::runtime_error("backend factory for '" + name + "' returned null");
  }
  return backend;
}

bool BackendRegistry::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->factories.count(name) != 0;
}

std::vector<std::string> BackendRegistry::names() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> out;
  out.reserve(impl_->factories.size());
  for (const auto& [name, factory] : impl_->factories) out.push_back(name);
  return out;  // std::map iterates sorted
}

perf::MeasureResult measure_with_backend(const ExecutorBackend& backend,
                                         const core::Plan& plan,
                                         const perf::MeasureOptions& options) {
  // The protocol (warmup, probe-sized batches, master-copy restore) lives
  // once, in perf::measure_set (measure_run is its set of one); this merely
  // plugs the backend in as the engine so e.g. "parallel" and "simd" are
  // timed on their own code paths.
  ExecContext ctx;
  return perf::measure_run(
      [&backend, &plan, &ctx](double* x) { backend.run(plan, x, 1, ctx); },
      plan.size(), options);
}

std::function<double(const core::Plan&)> model_with_backend(
    const ExecutorBackend& backend, model::CostCache* cache) {
  if (auto own = backend.cost_model()) return own;
  model::CombinedModel model;
  model.vector_width = backend.vector_width();
  model.cost_cache = cache;
  return [model](const core::Plan& candidate) { return model(candidate); };
}

}  // namespace whtlab::api
