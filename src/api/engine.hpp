// wht::Engine — the process-wide concurrent serving façade.
//
// A Transform is immutable and re-entrant (transform.hpp), so the natural
// serving architecture is: plan once per (size, backend), share the plans
// among every serving thread, and decide *which* backend answers each
// request from the request's shape.  Engine packages exactly that:
//
//   wht::Engine engine;
//   engine.execute(16, x);             // single vector, arbitrated backend
//   engine.execute_many(10, xs, 64);   // batch, arbitrated batch path
//   auto done = engine.submit(10, y);  // served on the caller; the
//   done.get();                        //   future is already ready
//
//   * Shared plan cache — one immutable Transform per (n, backend), planned
//     on first touch through the wht::Planner (wisdom-backed when
//     EngineOptions::wisdom_file is set: a tuned plan is paid for once per
//     machine, then every Engine in every process reuses it).
//   * Serve-time backend arbitration — each registered candidate backend is
//     priced for the request shape (single vector vs batch, size, thread
//     budget) from a first-touch measured anchor (cycles per vector, all of
//     one size's candidates timed as one raced set; with measure_costs off,
//     its model cost instead), scaled by ExecutorBackend::batch_factor for
//     the batch shape.  The measure-or-model autotuning idea, applied
//     across backends at serve time: "fused" wins big single vectors by
//     its measured anchor, "simd" wins tiny-n batches (interleave) — not
//     per a hardcode.
//   * One way to group — a caller holding separately placed vectors passes
//     them as a pointer array to execute_many(n, xs, count, ctx), which
//     stages them into ONE arbitrated run_many call.  Every request, a
//     submit() included, is served on its calling thread: no caller ever
//     waits on another.
//
// The warm serve path (execute, execute_many and submit) takes no Engine or
// Transform mutex while the circuit breaker is disarmed: each size's
// candidate cells are published once through an atomic route pointer, the
// Stats counters are striped relaxed atomics, and context-less calls run on
// the calling thread's ExecContext.
//
// All public methods are thread-safe; one Engine is meant to be shared by
// an entire process (construct it once, serve from everywhere).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/exec_context.hpp"
#include "api/planner.hpp"
#include "api/transform.hpp"
#include "telemetry/registry.hpp"

namespace whtlab::api {

struct EngineOptions {
  /// Candidate backends the arbiter chooses among.  Every name must exist in
  /// the BackendRegistry (checked at Engine construction).  Empty = the
  /// serving built-ins: "generated", "simd", "fused", plus "parallel" when
  /// threads > 1.
  std::vector<std::string> backends;

  /// Planning strategy for first-touch plans (kEstimate: model-driven,
  /// instant — the serving default; pair with wisdom_file to amortize
  /// anything costlier).
  Strategy strategy = Strategy::kEstimate;

  /// Per-request worker-thread budget handed to the backends and to the
  /// arbiter's batch pricing: batches fan whole vectors out, and "fused"
  /// also splits one vector larger than its largest cache block across the
  /// threads (the first-touch anchor measures that split, so the arbiter
  /// prices it).  Serving throughput scales with *caller* threads on the
  /// shared transforms regardless; keep this 1 unless individual requests
  /// are latency-critical.
  int threads = 1;

  /// Wisdom file consulted/updated by first-touch planning ("" = none).
  std::string wisdom_file;

  /// Price each (n, backend) by measured cycles so arbitration compares
  /// cycles with cycles.  The first touch of n times all of n's candidates
  /// as one raced set on one buffer pair (perf::measure_set): a probe and
  /// one warmup run each, then up to three timed rounds, round-robin.  A
  /// candidate more than 2x behind the best after round one stops there
  /// and is priced at that sample; the others at their median of three.
  /// Off = raw model units (only meaningful when every candidate's model
  /// shares units — e.g. custom backends in tests).
  bool measure_costs = true;

  /// Backend circuit breaker: every served output is checked, and a
  /// serving-time failure — an exception out of the backend, or a
  /// non-finite output from a finite input — is transparently re-run on
  /// the `generated` reference backend from a pristine input snapshot.
  /// After this many consecutive failures a backend is quarantined: the
  /// arbiter stops routing to it.  (A non-finite *input* legitimately
  /// yields non-finite output and is the caller's business.)  0 disables
  /// the breaker entirely (the library default: no snapshot copies, no
  /// output scan, no behavior change); the whtd daemon arms it.
  int quarantine_strikes = 0;

  /// How long a quarantined backend sits out before the arbiter re-probes
  /// it with live traffic.  A successful probe clears the quarantine; a
  /// failed one re-trips it for another probation period.
  std::uint64_t probation_ms = 2000;

  /// Online telemetry: every served request records its observed
  /// cycles-per-vector into a per-(n, backend, single/batch) accumulator
  /// table (telemetry/registry.hpp), exported via telemetry_snapshot() as
  /// lifetime totals.  Telemetry only observes: the arbiter prices every
  /// shape from its first-touch anchor alone, so routing is the same with
  /// it on or off.  Recording costs two tick reads, two relaxed atomic adds
  /// and the min/max loads per request; off skips all of it (the baseline
  /// that telemetry-overhead measurements compare against).
  bool telemetry = true;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  /// Nothing to drain: every call, submit() included, has served its
  /// vectors by the time it returns.  Destroy the Engine only once every
  /// thread's calls into it have returned.
  ~Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// What the arbiter decided for one request shape (also the introspection
  /// hook: candidates lists every backend's priced cost for the shape).
  struct Decision {
    std::string backend;  ///< the winner
    double cost = 0.0;    ///< its predicted cost for the whole request
    struct Candidate {
      std::string backend;
      double cost = 0.0;
    };
    std::vector<Candidate> candidates;  ///< every priced candidate, sorted by cost
  };

  /// Prices every candidate backend for a request of `count` vectors of
  /// 2^n doubles and returns the ranking — the same pricing loop the serve
  /// paths route by.  First touch of n plans every candidate (and, by
  /// default, anchor-measures them as one set); later calls are arithmetic
  /// on the cached per-unit costs — no re-planning, no re-measurement.  A
  /// candidate whose plan or anchor throws is skipped for this decision and
  /// retried alone on the next; arbitrate itself throws only when every
  /// candidate fails.
  ///
  /// Every entry point taking `n` (arbitrate, transform, execute,
  /// execute_many, submit) throws std::invalid_argument for n outside
  /// [1, kMaxLog2Size] before touching any state.
  Decision arbitrate(int n, std::size_t count = 1);

  /// The shared immutable Transform for (n, backend); planned on first
  /// touch, cached for the Engine's lifetime.  A candidate backend's first
  /// touch builds every candidate of n, as a request's would; any other
  /// backend is planned alone and never priced.  The shared_ptr keeps it
  /// alive independently of the Engine — hold it to skip even the cache
  /// lookup on a hot serve path.
  std::shared_ptr<const Transform> transform(int n, const std::string& backend);

  /// Builds the shared Transform of every candidate backend for each size
  /// n the configured wisdom file records for this host's SIMD level and
  /// one of this Engine's candidates — what the first touch of n would
  /// build — so a freshly (re)started daemon pays its first-touch planning
  /// stalls *before* taking traffic instead of on the first unlucky request
  /// (`whtd --prewarm`).  Plan-oblivious candidates ("fused") record no
  /// wisdom, and are warmed through the sizes the others record.  Returns
  /// the number of Transforms built; shapes whose build throws are skipped
  /// (they will retry on first touch, exactly as without prewarming).  No
  /// wisdom file configured, or none readable, prewarms nothing.
  std::size_t prewarm();

  /// Durability barrier for the configured wisdom file: re-merges the
  /// process's cached wisdom over the on-disk state and saves atomically.
  /// Inserts already persist eagerly, so this is a best-effort lifecycle
  /// hook — a draining daemon calls it before exiting so the successor's
  /// prewarm provably sees every winner this Engine recorded.  No wisdom
  /// file configured = no-op; never throws.
  void flush_wisdom();

  /// Serves one in-place transform of x[0 .. 2^n) on the arbitrated
  /// backend, synchronously on the calling thread.
  void execute(int n, double* x);

  /// Serves `count` vectors (vector v at x + v*dist; dist defaults to 2^n)
  /// in one arbitrated run_many call.
  void execute_many(int n, double* x, std::size_t count);
  void execute_many(int n, double* x, std::size_t count, std::ptrdiff_t dist);

  /// External-submitter hooks: the caller owns the per-call context instead
  /// of borrowing the calling thread's — the shape for serving layers that
  /// drive the Engine from their own threads with their own arenas (the
  /// whtd daemon executes straight on shared-memory staging this way).
  void execute_many(int n, double* x, std::size_t count, std::ptrdiff_t dist,
                    ExecContext& ctx);

  /// Serves `count` separately placed vectors (vector v at xs[v]) as one
  /// arbitrated batch: stages them contiguously in ctx.staging(), runs ONE
  /// run_many, scatters the results back.  A group whose staging would
  /// exceed 2^21 doubles serves per-vector in place instead; count 1 is a
  /// plain single on the caller's context.  This is the Engine's one way
  /// to group vectors; the whtd daemon merges its same-n singles here.
  void execute_many(int n, double* const* xs, std::size_t count,
                    ExecContext& ctx);

  /// Serves one in-place transform of x[0 .. 2^n) exactly as execute()
  /// does, on the calling thread, and returns a future that is already
  /// ready.  Planning or execution errors surface through the future; an
  /// out-of-range n throws at the call.
  std::future<void> submit(int n, double* x);

  /// Serving counters (monotonic since construction).  Each is exact, but
  /// a snapshot taken mid-traffic sums the stripes one counter at a time,
  /// so its fields can be torn across one another (e.g. `vectors` already
  /// counting a batch that `batches` does not yet).
  struct Stats {
    std::uint64_t vectors = 0;       ///< transforms served, all paths
    std::uint64_t singles = 0;       ///< synchronous execute() requests
    std::uint64_t submitted = 0;     ///< submit() requests
    std::uint64_t batches = 0;       ///< run_many dispatches (any path)
    /// Always 0: submit() serves each vector alone.  Kept only because
    /// existing readers of Stats still name it.
    std::uint64_t coalesced = 0;
    std::uint64_t failures = 0;      ///< serving-time backend failures absorbed
    std::uint64_t fallbacks = 0;     ///< requests re-run on the reference backend
    std::map<std::string, std::uint64_t> per_backend;  ///< vectors per winner
    /// Circuit-breaker state: quarantine trips per backend since
    /// construction, and the backends sitting in quarantine right now.
    std::map<std::string, std::uint64_t> quarantine_trips;
    std::vector<std::string> quarantined;
  };
  Stats stats() const;

  /// Point-in-time copy of the whole telemetry table — every
  /// (n, backend, single/batch) series observed since construction, sorted.
  /// Empty when options().telemetry is off.  telemetry::to_text renders it
  /// in the Prometheus exposition format.
  telemetry::Snapshot telemetry_snapshot() const;

  const EngineOptions& options() const { return options_; }
  /// The arbiter's candidate pool (options().backends after defaulting).
  const std::vector<std::string>& candidates() const { return candidates_; }

 private:
  /// Cache-line aligned with the fields the serve path reads first, so
  /// pricing a candidate touches one line.
  struct alignas(64) Entry {
    /// Lock-free ready flag: once true, transform/unit_cost are immutable
    /// and readable without the size's build mutex (release/acquire
    /// pairing).  Build failures cache nothing — the next touch retries, so
    /// one transient error (ENOSPC during a wisdom write, an OOM during an
    /// anchor measurement) never poisons a size for the Engine's lifetime.
    std::atomic<bool> ready{false};
    double unit_cost = 0.0;  ///< per-vector serve cost (cycles or model units)
    std::shared_ptr<const Transform> transform;
    /// Live telemetry series for this (n, backend), resolved once at build
    /// so the hot recording path never touches the registry lock (series
    /// addresses are stable for the Engine's lifetime).  Null when
    /// telemetry is off, and for a non-candidate entry (nothing routes to
    /// it, so nothing records into it).
    telemetry::Accumulator* telem_single = nullptr;
    telemetry::Accumulator* telem_batch = nullptr;
  };

  /// The map cell for (n, backend) — one short map-lock, no building.
  Entry& slot(int n, const std::string& backend);
  /// A fresh Transform for (n, backend) from the configured Planner.
  std::shared_ptr<const Transform> plan(int n,
                                        const std::string& backend) const;
  /// First touch of n's candidates: under n's build mutex, plans every
  /// candidate whose cell is not ready, prices the planned ones together —
  /// measured as one raced set (perf::measure_set), or by their models —
  /// and publishes each.  Returns one error per candidate id: what its plan
  /// or anchor threw (its cell stays unbuilt, retried at the next touch),
  /// or null.
  std::vector<std::exception_ptr> build_candidates(int n, Entry* const* cells);
  /// The built entry of a backend that is not a candidate (transform(n,
  /// "template"), or the reference fallback when it is not a candidate):
  /// planned on first touch with no price, since nothing prices it.
  Entry& unpriced(int n, const std::string& backend);

  /// The candidates' cells for n, in candidates_ order: one acquire load
  /// once published (first touch resolves them through slot()).
  Entry* const* route(int n);

  /// The arbiter's pick for one request shape: the winning entry and its
  /// candidate id (index into candidates_, also its Stats column).
  struct Choice {
    Entry* winner = nullptr;
    std::size_t id = 0;
    double cost = 0.0;  ///< predicted cost of the whole request
  };
  /// The one pricing loop: allocation-free on the serve paths; arbitrate()
  /// passes `decision` to have every priced candidate ranked into it.
  Choice choose(int n, std::size_t count, Decision* decision = nullptr);

  /// Circuit-breaker bookkeeping per candidate id.  Cells are created in
  /// the constructor and never erased; all fields are guarded by
  /// health_mutex_.
  struct Health {
    int strikes = 0;          ///< consecutive serving-time failures
    bool quarantined = false;
    std::uint64_t until_ns = 0;  ///< monotonic re-probe time
    std::uint64_t trips = 0;     ///< times quarantine engaged
  };

  /// True while candidate `id` is quarantined and its probation has not
  /// elapsed (after probation the arbiter lets live traffic re-probe it).
  bool quarantine_blocked(std::size_t id);
  void on_backend_failure(std::size_t id);
  void on_backend_success(std::size_t id);
  /// True when the breaker can engage, so success/probe bookkeeping runs.
  bool health_armed() const { return options_.quarantine_strikes > 0; }

  /// Runs the chosen transform; with the breaker armed, absorbs a backend
  /// failure (exception, injected fault, or non-finite output from a finite
  /// input) by striking the backend, restoring the input from a snapshot,
  /// and re-running on the reference backend.  Returns the Stats column of
  /// the backend that actually served.
  std::size_t run_guarded(const Choice& choice, int n, double* x,
                          std::size_t count, std::ptrdiff_t dist,
                          ExecContext* ctx);

  /// Stats counter slots per stripe: these tallies, then, per column (one
  /// per candidate id, plus one for the reference backend when it is not a
  /// candidate: fallback_column_), the vectors each serve path delivered —
  /// so a single-vector request bumps exactly one counter.
  enum Tally : std::size_t {
    kSubmitted,
    kBatches,
    kFailures,
    kFallbacks,
    kTallies
  };
  enum Path : std::size_t {
    kSingle,        ///< execute(), or execute_many of one vector
    kSubmitSingle,  ///< a submit()
    kBatched,       ///< execute_many batches
    kPaths
  };
  static std::size_t path_slot(std::size_t column, Path path) {
    return kTallies + column * kPaths + path;
  }
  struct alignas(64) CounterLine {
    std::atomic<std::uint64_t> slot[8];
  };
  /// Adds `by` to `slot` on the calling thread's stripe (relaxed).
  void bump(std::size_t slot, std::uint64_t by);
  /// `slot` summed over every stripe.
  std::uint64_t total(std::size_t slot) const;
  /// Counts `vectors` served on `column` by one run along `path`.
  void record(std::size_t column, std::uint64_t vectors, Path path);

  /// One arbitrated single-vector run on the calling thread's context,
  /// counted along `path`: the body of both execute() and submit().
  void serve_single(int n, double* x, Path path);

  EngineOptions options_;
  std::vector<std::string> candidates_;
  telemetry::Registry telemetry_;

  std::mutex entries_mutex_;  ///< guards the map structure, not the builds
  std::map<std::pair<int, std::string>, std::unique_ptr<Entry>> entries_;
  /// Per n: serializes the builds of that size's entries, so timing one
  /// size's candidates holds no Engine-wide lock.
  std::mutex build_mutexes_[kMaxLog2Size + 1];
  /// Per-n routes, published once through routes_[n] and never rebuilt:
  /// cells are stable and carry their own ready flag.  route_storage_[n]
  /// owns the array and is written only by the thread that published it.
  std::unique_ptr<Entry*[]> route_storage_[kMaxLog2Size + 1];
  std::atomic<Entry* const*> routes_[kMaxLog2Size + 1];

  mutable std::mutex health_mutex_;
  std::vector<Health> health_;  ///< per candidate id

  std::size_t fallback_column_ = 0;
  std::size_t lines_per_stripe_ = 0;
  std::unique_ptr<CounterLine[]> counters_;  ///< kStripes x lines_per_stripe_
};

/// One-line human-readable rendering of a stats snapshot — the export used
/// by `whtd --stats`, the serve example, and log lines.
std::string to_string(const Engine::Stats& stats);

}  // namespace whtlab::api
