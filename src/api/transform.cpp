#include "api/transform.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

namespace whtlab::api {

namespace {

/// Per thread: the context every context-less Transform call on the thread
/// borrows.
struct ThreadSlot {
  ExecContext ctx;
  bool borrowed = false;  ///< a context-less call on this thread holds ctx
};

ThreadSlot& thread_slot() {
  thread_local ThreadSlot slot;
  return slot;
}

}  // namespace

const char* to_string(Strategy strategy) {
  switch (strategy) {
    case Strategy::kEstimate:
      return "estimate";
    case Strategy::kMeasure:
      return "measure";
    case Strategy::kSampled:
      return "sampled";
    case Strategy::kFixed:
      return "fixed";
  }
  return "unknown";
}

Strategy strategy_from_string(const std::string& name) {
  for (const Strategy strategy :
       {Strategy::kEstimate, Strategy::kMeasure, Strategy::kSampled,
        Strategy::kFixed}) {
    if (name == to_string(strategy)) return strategy;
  }
  throw std::invalid_argument(
      "unknown strategy '" + name +
      "' (valid: estimate, measure, sampled, fixed)");
}

Transform::Transform(core::Plan plan, std::unique_ptr<ExecutorBackend> backend,
                     PlanningInfo info)
    : plan_(std::move(plan)),
      backend_(std::move(backend)),
      backend_name_(backend_->name()),
      info_(std::move(info)) {}

void Transform::ensure_valid() const {
  if (!valid()) throw std::logic_error("wht::Transform: not planned");
}

template <typename Run>
void Transform::with_thread_context(Run&& run) const {
  ThreadSlot& slot = thread_slot();
  if (slot.borrowed) {
    // Re-entered from inside a context-less call on this thread (a backend
    // calling back into a Transform): the outer call still owns slot.ctx.
    ExecContext fresh;
    run(fresh);
    return;
  }
  struct Borrow {
    explicit Borrow(bool& flag) : borrowed(flag) { borrowed = true; }
    ~Borrow() { borrowed = false; }
    bool& borrowed;
  } borrow(slot.borrowed);
  run(slot.ctx);
}

void Transform::execute(double* x) const { execute(x, 1); }

void Transform::execute(double* x, std::ptrdiff_t stride) const {
  ensure_valid();
  with_thread_context([&](ExecContext& ctx) { execute(x, stride, ctx); });
}

void Transform::execute(double* x, std::ptrdiff_t stride,
                        ExecContext& ctx) const {
  ensure_valid();
  if (stride == 0) throw std::invalid_argument("Transform: stride must be nonzero");
  backend_->run(plan_, x, stride, ctx);
}

void Transform::execute_many(double* x, std::size_t count) const {
  execute_many(x, count, static_cast<std::ptrdiff_t>(size()));
}

void Transform::execute_many(double* x, std::size_t count,
                             std::ptrdiff_t dist) const {
  ensure_valid();
  with_thread_context(
      [&](ExecContext& ctx) { execute_many(x, count, dist, ctx); });
}

void Transform::execute_many(double* x, std::size_t count, std::ptrdiff_t dist,
                             ExecContext& ctx) const {
  ensure_valid();
  const auto span = static_cast<std::ptrdiff_t>(size());
  if (dist > -span && dist < span) {
    throw std::invalid_argument(
        "Transform: |dist| must be >= size() so batch vectors do not overlap");
  }
  backend_->run_many(plan_, x, count, dist, ctx);
}

void Transform::execute_copy(const double* in, double* out) const {
  ensure_valid();
  if (out != in) std::memmove(out, in, size() * sizeof(double));
  with_thread_context(
      [&](ExecContext& ctx) { backend_->run(plan_, out, 1, ctx); });
}

std::vector<double> Transform::apply(const std::vector<double>& in) const {
  ensure_valid();
  if (in.size() != size()) {
    throw std::invalid_argument("Transform: input length " +
                                std::to_string(in.size()) + " != transform size " +
                                std::to_string(size()));
  }
  // Stage through the context's caller-side arena (aligned, reused across
  // calls) so the backend's own scratch use cannot alias it.
  std::vector<double> out;
  with_thread_context([&](ExecContext& ctx) {
    double* stage = ctx.staging(size());
    std::memcpy(stage, in.data(), size() * sizeof(double));
    backend_->run(plan_, stage, 1, ctx);
    out.assign(stage, stage + size());
  });
  return out;
}

perf::MeasureResult Transform::measure(const perf::MeasureOptions& options) const {
  ensure_valid();
  return measure_with_backend(*backend_, plan_, options);
}

}  // namespace whtlab::api
