#include "api/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "api/planner.hpp"
#include "api/wisdom.hpp"
#include "perf/measure.hpp"
#include "simd/cpu_features.hpp"
#include "util/fault.hpp"

namespace whtlab::api {

namespace {

namespace fault = util::fault;

/// The quarantine fallback: the reference backend every other execution
/// path is parity-tested against, always present in the registry.
constexpr const char* kFallbackBackend = "generated";

/// The first-touch anchor measurement, kept deliberately cheap: it runs on
/// the first request of every n, over all of its candidates at once.
constexpr perf::MeasureOptions kAnchorProtocol{/*warmup=*/1,
                                               /*repetitions=*/3};

std::uint64_t engine_monotonic_ns() {
  struct timespec ts {};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

bool all_finite(const double* x, std::size_t count, std::uint64_t size,
                std::ptrdiff_t dist) {
  for (std::size_t v = 0; v < count; ++v) {
    const double* vec = x + static_cast<std::ptrdiff_t>(v) * dist;
    for (std::uint64_t i = 0; i < size; ++i) {
      if (!std::isfinite(vec[i])) return false;
    }
  }
  return true;
}

/// The range gate every entry point runs before any shift by n or any
/// cache state keyed by it.
void check_n(int n) {
  if (n < 1 || n > kMaxLog2Size) {
    throw std::invalid_argument("wht::Engine: n out of [1, " +
                                std::to_string(kMaxLog2Size) + "], got " +
                                std::to_string(n));
  }
}

}  // namespace

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  if (options_.threads < 1) {
    throw std::invalid_argument("wht::Engine: threads must be >= 1");
  }
  if (options_.quarantine_strikes < 0) {
    throw std::invalid_argument("wht::Engine: quarantine_strikes must be >= 0");
  }
  if (options_.quarantine_strikes > 0 && options_.probation_ms < 1) {
    throw std::invalid_argument("wht::Engine: probation_ms must be >= 1");
  }
  candidates_ = options_.backends;
  if (candidates_.empty()) {
    // The backends that can win a size: "simd" runs the generated codelet
    // itself on the small leaves where the reference walk beats its vector
    // walk, so the reference is planned only where a caller or the breaker
    // names it.
    candidates_ = {"simd", "fused"};
    if (options_.threads > 1) candidates_.push_back("parallel");
  }
  auto& registry = BackendRegistry::global();
  for (const auto& name : candidates_) {
    if (!registry.contains(name)) {
      throw std::invalid_argument("wht::Engine: unknown candidate backend '" +
                                  name + "'");
    }
  }
  if (options_.quarantine_strikes > 0 &&
      !registry.contains(kFallbackBackend)) {
    throw std::invalid_argument(
        "wht::Engine: quarantine needs the reference backend '" +
        std::string(kFallbackBackend) + "' in the registry");
  }
  health_.resize(candidates_.size());  // breaker cells exist up front
  fallback_column_ = static_cast<std::size_t>(
      std::find(candidates_.begin(), candidates_.end(), kFallbackBackend) -
      candidates_.begin());
  const std::size_t slots = path_slot(candidates_.size() + 1, kSingle);
  lines_per_stripe_ = (slots + 7) / 8;
  counters_ = std::make_unique<CounterLine[]>(
      static_cast<std::size_t>(telemetry::kStripes) * lines_per_stripe_);
}

Engine::Entry& Engine::slot(int n, const std::string& backend) {
  const std::lock_guard<std::mutex> lock(entries_mutex_);
  std::unique_ptr<Entry>& cell = entries_[{n, backend}];
  if (!cell) cell = std::make_unique<Entry>();
  return *cell;  // map nodes are stable; cells are never erased
}

std::shared_ptr<const Transform> Engine::plan(
    int n, const std::string& backend) const {
  Planner planner;
  planner.strategy(options_.strategy)
      .backend(backend)
      .threads(options_.threads);
  if (!options_.wisdom_file.empty()) planner.wisdom_file(options_.wisdom_file);
  return std::make_shared<const Transform>(planner.plan(n));
}

std::vector<std::exception_ptr> Engine::build_candidates(int n,
                                                         Entry* const* cells) {
  std::vector<std::exception_ptr> errors(candidates_.size());
  const std::lock_guard<std::mutex> lock(build_mutexes_[n]);
  std::vector<std::size_t> ids;  // planned candidates, awaiting their price
  std::vector<std::shared_ptr<const Transform>> planned;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (cells[i]->ready.load(std::memory_order_relaxed)) continue;
    // A backend named twice shares one cell: build it once.
    if (std::find(cells, cells + i, cells[i]) != cells + i) continue;
    try {
      planned.push_back(plan(n, candidates_[i]));
      ids.push_back(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  }
  if (ids.empty()) return errors;

  std::vector<perf::SetResult> anchors(ids.size());
  if (options_.measure_costs) {
    // Anchor to cycles so every candidate is priced in one unit: the
    // planned candidates are timed as one raced set on one buffer pair,
    // paid at first touch, cached for the Engine's lifetime.  The runs are
    // sequential, so one context serves them all.
    ExecContext ctx;
    std::vector<perf::RunFn> runs;
    for (const auto& t : planned) {
      runs.push_back([&t, &ctx](double* x) {
        t->backend().run(t->plan(), x, 1, ctx);
      });
    }
    anchors = perf::measure_set(runs, planned.front()->size(), kAnchorProtocol);
  }
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const std::size_t i = ids[k];
    const Transform& t = *planned[k];
    Entry& e = *cells[i];
    try {
      if (anchors[k].error) std::rethrow_exception(anchors[k].error);
      e.unit_cost = options_.measure_costs
                        ? anchors[k].result.cycles()
                        : model_with_backend(t.backend())(t.plan());
    } catch (...) {
      errors[i] = std::current_exception();  // its cell stays unbuilt
      continue;
    }
    if (options_.telemetry) {
      e.telem_single = &telemetry_.series(n, candidates_[i], /*batch=*/false);
      e.telem_batch = &telemetry_.series(n, candidates_[i], /*batch=*/true);
    }
    e.transform = std::move(planned[k]);
    e.ready.store(true, std::memory_order_release);
  }
  return errors;
}

Engine::Entry& Engine::unpriced(int n, const std::string& backend) {
  Entry& e = slot(n, backend);
  if (!e.ready.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(build_mutexes_[n]);
    if (!e.ready.load(std::memory_order_relaxed)) {
      e.transform = plan(n, backend);  // a throw caches nothing
      e.ready.store(true, std::memory_order_release);
    }
  }
  return e;
}

std::shared_ptr<const Transform> Engine::transform(int n,
                                                   const std::string& backend) {
  check_n(n);
  const auto it = std::find(candidates_.begin(), candidates_.end(), backend);
  if (it == candidates_.end()) return unpriced(n, backend).transform;
  // A candidate is built with the rest of its size, as a request would.
  const auto id = static_cast<std::size_t>(it - candidates_.begin());
  Entry* const* cells = route(n);
  if (!cells[id]->ready.load(std::memory_order_acquire)) {
    const std::exception_ptr error = build_candidates(n, cells)[id];
    if (error) std::rethrow_exception(error);
  }
  return cells[id]->transform;
}

std::size_t Engine::prewarm() {
  if (options_.wisdom_file.empty()) return 0;
  Wisdom wisdom;
  try {
    wisdom = Wisdom::load(options_.wisdom_file);
  } catch (const std::exception&) {
    return 0;  // unreadable/corrupt wisdom: prewarm is best-effort
  }
  const std::string cpu = simd::to_string(simd::active_level());
  // A recorded size warms every candidate, as its first touch would,
  // whichever backend recorded it: plan-oblivious backends ("fused") record
  // no wisdom of their own, and wisdom seeded through the Planner's default
  // backend carries "generated" keys.
  std::set<int> sizes;
  for (const Wisdom::Key& key : wisdom.keys()) {
    if (key.cpu != cpu) continue;  // tuned for another host/SIMD level
    if (key.n < 1 || key.n > kMaxLog2Size) continue;
    sizes.insert(key.n);
  }
  std::size_t built = 0;
  for (const int n : sizes) {
    // A candidate that cannot build now is left for its first touch to
    // retry; prewarm must not keep the daemon from serving everything else.
    Entry* const* cells = route(n);
    try {
      build_candidates(n, cells);
    } catch (const std::exception&) {
    }
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      built += cells[i]->ready.load(std::memory_order_acquire) ? 1 : 0;
    }
  }
  return built;
}

void Engine::flush_wisdom() {
  if (options_.wisdom_file.empty()) return;
  WisdomRegistry::global().flush(options_.wisdom_file);
}

Engine::Entry* const* Engine::route(int n) {
  Entry* const* cells = routes_[n].load(std::memory_order_acquire);
  if (cells != nullptr) return cells;
  // First touch of n: resolve every candidate's cell, then publish.  Racing
  // first touches resolve the same cells; the one that loses the publish
  // drops its copy and uses the winner's.
  auto array = std::make_unique<Entry*[]>(candidates_.size());
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    array[i] = &slot(n, candidates_[i]);
  }
  if (routes_[n].compare_exchange_strong(cells, array.get(),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
    cells = array.get();
    route_storage_[n] = std::move(array);
  }
  return cells;
}

Engine::Choice Engine::choose(int n, std::size_t count, Decision* decision) {
  if (count < 1) {
    throw std::invalid_argument("wht::Engine: request count must be >= 1");
  }
  Entry* const* cells = route(n);
  Choice choice;
  std::exception_ptr first_error;
  bool built = false;
  // Two passes at most: first honouring quarantine, then — only if the
  // breaker has sidelined every single candidate — ignoring it, because a
  // degraded answer beats refusing to serve.
  for (const bool honour_quarantine : {true, false}) {
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      if (honour_quarantine && quarantine_blocked(i)) continue;
      try {
        Entry& e = *cells[i];
        if (!e.ready.load(std::memory_order_acquire)) {
          // First touch of n: every unbuilt candidate is built together.
          if (!built) {
            built = true;
            for (const std::exception_ptr& error : build_candidates(n, cells)) {
              if (error && !first_error) first_error = error;
            }
          }
          // Its build threw: absent from this ranking, retried next touch.
          if (!e.ready.load(std::memory_order_acquire)) continue;
        }
        // Per-vector price for this shape: the first-touch anchor, scaled
        // by batch_factor for the batch path.
        double per_vector = e.unit_cost;
        if (count > 1) {
          per_vector *= e.transform->backend().batch_factor(
              e.transform->plan(), count, options_.threads);
        }
        const double cost = per_vector * static_cast<double>(count);
        if (decision != nullptr) {
          decision->candidates.push_back({candidates_[i], cost});
        }
        if (choice.winner == nullptr || cost < choice.cost) {
          choice = {&e, i, cost};
        }
      } catch (...) {
        // A broken candidate must not take the whole size down while others
        // can serve; it is absent from this ranking and retried next touch.
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (choice.winner != nullptr) break;
  }
  if (choice.winner == nullptr) {
    if (first_error) std::rethrow_exception(first_error);
    throw std::logic_error("wht::Engine: no candidate backends");
  }
  if (decision != nullptr) {
    decision->backend = candidates_[choice.id];
    decision->cost = choice.cost;
    std::sort(decision->candidates.begin(), decision->candidates.end(),
              [](const Decision::Candidate& a, const Decision::Candidate& b) {
                return a.cost < b.cost;
              });
  }
  return choice;
}

Engine::Decision Engine::arbitrate(int n, std::size_t count) {
  check_n(n);
  Decision decision;
  choose(n, count, &decision);
  return decision;
}

bool Engine::quarantine_blocked(std::size_t id) {
  if (!health_armed()) return false;
  const std::lock_guard<std::mutex> lock(health_mutex_);
  const Health& h = health_[id];
  if (!h.quarantined) return false;
  // Probation elapsed: the backend stays marked quarantined but the arbiter
  // lets this request through as a live-traffic probe.  Success clears the
  // breaker; failure re-trips it immediately (the trip left strikes at the
  // threshold, so one probe failure is enough — no fresh streak required).
  return engine_monotonic_ns() < h.until_ns;
}

void Engine::on_backend_failure(std::size_t id) {
  const std::lock_guard<std::mutex> lock(health_mutex_);
  Health& h = health_[id];
  h.strikes += 1;
  if (h.strikes >= options_.quarantine_strikes) {
    h.quarantined = true;
    h.until_ns = engine_monotonic_ns() + options_.probation_ms * 1000000ULL;
    h.trips += 1;
  }
}

void Engine::on_backend_success(std::size_t id) {
  const std::lock_guard<std::mutex> lock(health_mutex_);
  Health& h = health_[id];
  h.strikes = 0;
  h.quarantined = false;
}

std::size_t Engine::run_guarded(const Choice& choice, int n, double* x,
                                std::size_t count, std::ptrdiff_t dist,
                                ExecContext* ctx) {
  const std::uint64_t size = std::uint64_t{1} << n;
  const std::string& backend = candidates_[choice.id];
  const bool reference = choice.id == fallback_column_;
  const bool resilient = options_.quarantine_strikes > 0 && !reference;
  // Execution is in place, so a failed or corrupt run has already destroyed
  // the caller's input by the time the failure is visible.  The snapshot
  // is a local buffer on purpose: ctx staging may hold this very batch
  // (the pointer-array execute_many), and ScratchArena::acquire may
  // relocate on growth.
  std::vector<double> snapshot;
  if (resilient) {
    snapshot.resize(size * count);
    for (std::size_t v = 0; v < count; ++v) {
      std::memcpy(snapshot.data() + v * size,
                  x + static_cast<std::ptrdiff_t>(v) * dist,
                  size * sizeof(double));
    }
  }
  const auto run = [&](const Transform& t) {
    if (count == 1) {
      if (ctx != nullptr) {
        t.execute(x, 1, *ctx);
      } else {
        t.execute(x);
      }
    } else if (ctx != nullptr) {
      t.execute_many(x, count, dist, *ctx);
    } else {
      t.execute_many(x, count, dist);
    }
  };
  telemetry::Accumulator* telem =
      options_.telemetry
          ? (count > 1 ? choice.winner->telem_batch
                       : choice.winner->telem_single)
          : nullptr;
  std::uint64_t elapsed = 0;
  bool failed = false;
  try {
    if (fault::enabled() && fault::point("engine.exec." + backend)) {
      throw std::runtime_error("engine: backend '" + backend +
                               "' failed [fault injected]");
    }
    const std::uint64_t begin = telem ? telemetry::now_ticks() : 0;
    run(*choice.winner->transform);
    if (telem) elapsed = telemetry::now_ticks() - begin;
    if (fault::enabled() && fault::point("engine.corrupt." + backend)) {
      x[0] = std::numeric_limits<double>::quiet_NaN();
    }
    if (resilient && !all_finite(x, count, size, dist) &&
        all_finite(snapshot.data(), count, size,
                   static_cast<std::ptrdiff_t>(size))) {
      // Finite input, non-finite output: the backend corrupted the result.
      // (Non-finite *input* legitimately yields non-finite output and is
      // the caller's business, hence the snapshot check.)
      failed = true;
    }
  } catch (...) {
    if (!resilient) throw;
    failed = true;
  }
  if (!failed) {
    if (health_armed() && !reference) on_backend_success(choice.id);
    if (telem != nullptr) telem->record(elapsed / count);
    return choice.id;
  }
  on_backend_failure(choice.id);
  for (std::size_t v = 0; v < count; ++v) {
    std::memcpy(x + static_cast<std::ptrdiff_t>(v) * dist,
                snapshot.data() + v * size, size * sizeof(double));
  }
  // The reference backend's own failures propagate: there is nothing left
  // to fall back to, and masking them would hide real breakage.
  run(*transform(n, kFallbackBackend));
  bump(kFailures, 1);
  bump(kFallbacks, count);
  return fallback_column_;
}

void Engine::bump(std::size_t slot, std::uint64_t by) {
  CounterLine* stripe =
      &counters_[telemetry::stripe_index() * lines_per_stripe_];
  stripe[slot / 8].slot[slot % 8].fetch_add(by, std::memory_order_relaxed);
}

std::uint64_t Engine::total(std::size_t slot) const {
  std::uint64_t sum = 0;
  for (int s = 0; s < telemetry::kStripes; ++s) {
    const CounterLine& line =
        counters_[static_cast<std::size_t>(s) * lines_per_stripe_ + slot / 8];
    sum += line.slot[slot % 8].load(std::memory_order_relaxed);
  }
  return sum;
}

void Engine::record(std::size_t column, std::uint64_t vectors, Path path) {
  bump(path_slot(column, path), vectors);
  if (path == kBatched) bump(kBatches, 1);
}

void Engine::serve_single(int n, double* x, Path path) {
  const Choice choice = choose(n, 1);
  record(run_guarded(choice, n, x, 1,
                     static_cast<std::ptrdiff_t>(std::uint64_t{1} << n),
                     nullptr),
         1, path);
}

void Engine::execute(int n, double* x) {
  check_n(n);
  serve_single(n, x, kSingle);
}

void Engine::execute_many(int n, double* x, std::size_t count) {
  check_n(n);
  execute_many(n, x, count, static_cast<std::ptrdiff_t>(std::uint64_t{1} << n));
}

void Engine::execute_many(int n, double* x, std::size_t count,
                          std::ptrdiff_t dist) {
  check_n(n);
  if (count == 0) return;
  const Choice choice = choose(n, count);
  record(run_guarded(choice, n, x, count, dist, nullptr), count,
         count > 1 ? kBatched : kSingle);
}

void Engine::execute_many(int n, double* x, std::size_t count,
                          std::ptrdiff_t dist, ExecContext& ctx) {
  check_n(n);
  if (count == 0) return;
  const Choice choice = choose(n, count);
  record(run_guarded(choice, n, x, count, dist, &ctx), count,
         count > 1 ? kBatched : kSingle);
}

namespace {

/// Ceiling on a gathered batch's contiguous staging (16 MiB of doubles).
/// Gathering pays two memcpys per vector to unlock the batch paths, which
/// wins exactly where per-transform overhead dominates — tiny transforms.
/// Above this the copies (and the grow-only arena they would pin for the
/// context's lifetime) outweigh any batch gain, so the group serves
/// per-vector in place instead.
constexpr std::uint64_t kMaxStagedDoubles = std::uint64_t{1} << 21;

}  // namespace

void Engine::execute_many(int n, double* const* xs, std::size_t count,
                          ExecContext& ctx) {
  check_n(n);
  if (count == 0) return;
  const std::uint64_t size = std::uint64_t{1} << n;
  const bool staged = count > 1 && size * count <= kMaxStagedDoubles;
  // Price the shape that will actually run: a group too large to stage
  // serves as independent single-vector requests.
  const Choice choice = choose(n, staged ? count : 1);
  if (!staged) {
    for (std::size_t v = 0; v < count; ++v) {
      // run_guarded may reroute ONE vector to the fallback; the rest still
      // run on the winner.
      record(run_guarded(choice, n, xs[v], 1,
                         static_cast<std::ptrdiff_t>(size), &ctx),
             1, kSingle);
    }
    return;
  }
  // Stage the scattered vectors contiguously, run ONE batched call on the
  // arbitrated backend, scatter the results back.  The staging arena
  // belongs to the caller's context and is reused across batches, so
  // steady-state serving allocates nothing.
  double* stage = ctx.staging(size * count);
  for (std::size_t v = 0; v < count; ++v) {
    std::memcpy(stage + v * size, xs[v], size * sizeof(double));
  }
  const std::size_t served = run_guarded(
      choice, n, stage, count, static_cast<std::ptrdiff_t>(size), &ctx);
  for (std::size_t v = 0; v < count; ++v) {
    std::memcpy(xs[v], stage + v * size, size * sizeof(double));
  }
  record(served, count, kBatched);
}

std::future<void> Engine::submit(int n, double* x) {
  check_n(n);
  bump(kSubmitted, 1);
  std::promise<void> done;
  try {
    serve_single(n, x, kSubmitSingle);
    done.set_value();
  } catch (...) {
    done.set_exception(std::current_exception());
  }
  return done.get_future();
}

telemetry::Snapshot Engine::telemetry_snapshot() const {
  return telemetry_.snapshot();
}

Engine::Stats Engine::stats() const {
  Stats snapshot;
  snapshot.submitted = total(kSubmitted);
  snapshot.batches = total(kBatches);
  snapshot.failures = total(kFailures);
  snapshot.fallbacks = total(kFallbacks);
  for (std::size_t column = 0; column <= candidates_.size(); ++column) {
    std::uint64_t vectors = 0;
    for (const Path path : {kSingle, kSubmitSingle, kBatched}) {
      const std::uint64_t served = total(path_slot(column, path));
      if (path == kSingle) snapshot.singles += served;
      vectors += served;
    }
    if (vectors == 0) continue;
    snapshot.vectors += vectors;
    snapshot.per_backend[column < candidates_.size() ? candidates_[column]
                                                     : kFallbackBackend] =
        vectors;
  }
  const std::lock_guard<std::mutex> lock(health_mutex_);
  for (std::size_t id = 0; id < candidates_.size(); ++id) {
    const Health& h = health_[id];
    if (h.trips > 0) snapshot.quarantine_trips[candidates_[id]] = h.trips;
    if (h.quarantined) snapshot.quarantined.push_back(candidates_[id]);
  }
  return snapshot;
}

std::string to_string(const Engine::Stats& stats) {
  std::ostringstream out;
  out << "vectors=" << stats.vectors << " singles=" << stats.singles
      << " submitted=" << stats.submitted << " batches=" << stats.batches;
  if (stats.failures > 0 || stats.fallbacks > 0) {
    out << " failures=" << stats.failures << " fallbacks=" << stats.fallbacks;
  }
  for (const auto& [backend, vectors] : stats.per_backend) {
    out << ' ' << backend << '=' << vectors;
  }
  for (const auto& [backend, trips] : stats.quarantine_trips) {
    out << " trips." << backend << '=' << trips;
  }
  if (!stats.quarantined.empty()) {
    out << " quarantined=";
    for (std::size_t i = 0; i < stats.quarantined.size(); ++i) {
      out << (i == 0 ? "" : ",") << stats.quarantined[i];
    }
  }
  return out.str();
}

}  // namespace whtlab::api
