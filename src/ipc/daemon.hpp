// whtd — the shared-memory multi-process serving daemon.
//
// One Daemon owns one process-wide wht::Engine and one shm segment
// (protocol.hpp) and serves every connected client process through them:
//
//   ipc::Daemon daemon;        // creates /dev/shm/whtlab.<endpoint>
//   daemon.start();            // service thread: rings -> Engine -> rings
//   ...
//   daemon.stop();             // drain, publish shutdown, unlink segment
//
// The service loop pops requests from every active slot's ring, validates
// their shape, admits them against the client's credit budget, and serves
// every admitted request synchronously on the service thread:
// client-side batches run through the arbitrated execute_many as they are
// popped, and the single-vector requests popped in one poll round are
// grouped by size across slots, each group running as ONE pointer-array
// execute_many call — so same-n singles from *different client processes*
// merge into one batched run with no window and no thread hop.  All
// execution reads and writes the client's shm arena: no vector bytes are
// ever copied across the process boundary.
//
// Robustness is part of the contract:
//   * Admission control — a bounded slot table; a client that finds no free
//     slot gets a typed kServerFull at connect (client.hpp).
//   * Credit flow control — per-slot CreditBucket (credit_bucket.hpp),
//     off by default; over-budget requests answer kThrottled immediately,
//     without execution, so one greedy client cannot queue out the others.
//   * Deadline shedding — a request whose stamped deadline_ns passed
//     before execution answers a typed kTimeout instead of burning Engine
//     time; a request without a deadline is never shed.
//   * Dead-client reclamation — a pid-liveness sweep every sweep_ms frees
//     slots whose owner died (SIGKILL included) and resets their rings; an
//     answer for a slot that changed hands is dropped by generation check.
//     One crashed client never wedges the daemon.
//   * Clean shutdown — stop() lets the poll round in progress finish,
//     publishes the shutdown flag, wakes every parked waiter, and unlinks
//     the segment; blocked clients resolve to kDaemonGone instead of
//     hanging.
//   * Graceful drain (protocol v4) — drain() moves the lifecycle word to
//     kDraining: the daemon stops admitting (new submissions answer the
//     typed kDraining with a retry hint), finishes every in-flight request,
//     waits for clients to consume their answers, flushes wisdom, and only
//     then stops — all inside the drain_ms deadline (a wedged consumer
//     aborts the drain typed, never hangs it).  SIGTERM on whtd maps here.
//   * Warm-standby handoff — a Daemon built with options.standby binds a
//     *staging* segment (endpoint + ".next") so its Engine can prewarm from
//     wisdom without disturbing the incumbent; promote() then atomically
//     takes the canonical endpoint over (epoch bump) once the predecessor
//     is provably dead, shut down, or draining ("live-but-draining
//     predecessor cedes").  `whtd --supervise` drives this on SIGHUP for
//     zero-downtime rolling restarts (supervisor.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "ipc/protocol.hpp"
#include "ipc/shm.hpp"

namespace whtlab::ipc {

struct DaemonOptions {
  /// Serving endpoint name; the segment is /dev/shm/whtlab.<endpoint>.
  /// [--endpoint]
  std::string endpoint = "whtlab";

  /// Client slots — the admission-control bound.  [--slots]
  std::uint32_t slots = 16;

  /// Per-slot staging arena in doubles; bounds the largest servable request
  /// (count << n <= arena_doubles).  [--arena-doubles]
  std::uint64_t arena_doubles = std::uint64_t{1} << 19;  // 4 MiB

  /// Suggested client wait deadline, published in the header; clients may
  /// override locally.  [--timeout-ms]
  std::uint64_t timeout_ms = 5000;

  /// Liveness sweep period — the reclamation latency bound for a SIGKILLed
  /// client's slot.  Every sweep also republishes the Engine's telemetry
  /// into the observer-only /dev/shm/whtlab.<endpoint>.stats page
  /// (protocol.hpp, StatsPage); observers (`whtd_stat`) map it read-only
  /// and read under the seqlock, so publishing never blocks serving.
  /// [--sweep-ms]
  std::uint64_t sweep_ms = 50;

  /// Credit-based flow control: per-client work budget in *vectors* (one
  /// credit buys one staged vector), refilled continuously at credit_limit
  /// per credit_window_ns.  A request whose cost exceeds the balance gets a
  /// typed kThrottled without execution.  0 disables.
  /// [--credits / --credit-window-ms]
  std::uint64_t credit_limit = 0;
  std::uint64_t credit_window_ns = 1000000000ULL;

  /// Trust-boundary strikes before a slot is evicted (generation bump +
  /// reclaim).  Violations the shipped client library can never produce —
  /// corrupt ring cursors, out-of-arena shapes, seq replays — each count
  /// one strike; at the limit the offender loses its slot.  0 = count but
  /// never evict.  [--strikes]
  std::uint32_t strike_limit = 3;

  /// Graceful-drain budget: drain() finishes in-flight work and waits for
  /// clients to consume their answers for at most this long before aborting
  /// the drain (typed, counted — never hung).  [--drain-ms]
  std::uint64_t drain_ms = 5000;

  /// Warm-standby mode: bind the *staging* segment (endpoint + ".next")
  /// instead of the canonical one, so this daemon can construct and prewarm
  /// while the incumbent still serves.  promote() later takes the canonical
  /// endpoint over.  The staging segment never takes over a live staging
  /// predecessor either — two concurrent standbys is a configuration error.
  bool standby = false;

  /// The serving Engine's configuration (candidate backends, strategy,
  /// wisdom file, circuit breaker, telemetry, ...).  The daemon serves
  /// singles on its service thread and merges the same-n singles of one
  /// poll round itself through the pointer-array execute_many, so it never
  /// calls submit().  whtd arms the circuit breaker here.
  api::EngineOptions engine;

  /// Throws std::invalid_argument naming the first field outside its range.
  /// The Daemon constructor calls it, and so does whtd before it forks
  /// anything.
  void validate() const;
};

class Daemon {
 public:
  /// Creates and initializes the segment and the Engine.  A leftover
  /// segment whose daemon is dead or shut down is taken over.  Throws
  /// std::invalid_argument when options.validate() does,
  /// ipc::Error(kServerFull) when a live daemon already owns the endpoint,
  /// std::runtime_error on shm failures.
  explicit Daemon(DaemonOptions options = {});
  ~Daemon();  ///< stop() if still running

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void start();  ///< spawns the service thread (idempotent)

  /// Drains in-flight work, publishes shutdown, wakes all waiters, joins
  /// the service thread, and unlinks the segment.  Idempotent.  After a
  /// handoff the canonical name may already belong to the successor; stop()
  /// then skips the unlink (never removes a segment it no longer owns).
  void stop();

  /// Begins a graceful drain: the lifecycle word moves to kDraining (new
  /// submissions answer typed kDraining with a retry hint), in-flight work
  /// completes, clients consume their answers, wisdom is flushed — then the
  /// service loop parks in kStopped awaiting stop().  `deadline_ms` caps
  /// the whole drain (0 = options().drain_ms); a wedged consumer aborts the
  /// drain at the deadline (drain_aborted) instead of hanging it.
  /// Async-signal-unsafe parts live here, not in signal handlers — whtd's
  /// SIGTERM handler only sets a flag and its main loop calls drain().
  /// Idempotent; safe from any thread.
  void drain(std::uint64_t deadline_ms = 0);

  /// Blocks until the drain (or a plain stop) has run to completion — the
  /// lifecycle word reached kStopped — or `timeout_ms` passed.  Returns
  /// true when drained.
  bool wait_drained(std::uint64_t timeout_ms);

  /// Prewarms the Engine from wisdom (Engine::prewarm) and publishes the
  /// count in the header's `prewarmed` word, so supervisors and tests can
  /// verify a successor serves warm *before* takeover.  Returns the count.
  std::size_t prewarm();

  /// Warm-standby takeover: atomically moves this daemon from the staging
  /// segment (endpoint + ".next") to the canonical endpoint.  Waits up to
  /// `wait_ms` for the predecessor to cede — dead, shut down, reached
  /// kStopped, or (the drain-completion handoff) released the canonical
  /// name itself; a live serving-or-draining predecessor is never
  /// displaced — then binds a fresh segment under the canonical name
  /// with epoch = predecessor epoch + 1, and republishes the header (the
  /// prewarmed count carries over).  Clients attached to the predecessor
  /// keep their mappings (an unlinked segment lives until unmapped) and
  /// re-handshake onto the new segment by name.  Must be called before
  /// start(), on a Daemon built with options.standby.  Throws
  /// ipc::Error(kServerFull) when the predecessor never cedes.
  void promote(std::uint64_t wait_ms = 10000);

  /// The published lifecycle word (kBooting until construction completes).
  Lifecycle lifecycle() const;
  /// The published takeover epoch (bumped by promote; 0 on staging).
  std::uint64_t epoch() const;

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Snapshot of the shared counters (also readable by any process that
  /// maps the segment — Client::stats, `whtd --stats`).
  using Stats = DaemonCounters;
  Stats stats() const;

  api::Engine& engine() { return *engine_; }
  const DaemonOptions& options() const { return options_; }
  const std::string& shm_name() const { return shm_.name(); }

 private:
  struct SlotLocal;  // daemon-private per-slot state (credits, strikes, ...)

  /// An admitted single-vector request, held until the end of its poll
  /// round.
  struct Single {
    std::uint32_t index = 0;
    std::uint64_t generation = 0;
    std::uint64_t seq = 0;
    std::uint32_t n = 0;
    double* x = nullptr;
  };

  void service_loop();
  /// One poll round: pops every active slot's ring, runs batches as they
  /// come, then serves the round's singles (serve_singles).  True when
  /// anything was popped.
  bool poll_requests();
  void handle_request(std::uint32_t index, SlotShared* slot,
                      std::uint64_t gen, const Request& request);
  /// Groups the round's admitted singles by n across slots and runs each
  /// group as one pointer-array execute_many, answering through complete().
  void serve_singles();
  void complete(std::uint32_t index, std::uint64_t gen, std::uint64_t seq,
                Status status);
  void respond(std::uint32_t index, SlotShared* slot, std::uint64_t seq,
               Status status, std::int32_t hint_ms = 0);
  /// Drain progress: true when no live client still holds unconsumed
  /// entries in either of its rings (everything submitted was answered AND
  /// every answer was picked up).  Dead owners don't count — their slots
  /// are the sweep's problem, not the drain's.
  bool rings_flushed() const;
  void set_lifecycle(Lifecycle lifecycle);
  /// Binds the shm segment named `shm_name`, taking over a stale
  /// predecessor per `cede_draining` (false: ctor rule — dead or shut down
  /// only; true: promote rule — a live-but-draining predecessor cedes too,
  /// waiting up to `wait_ms` for it to start draining), and publishes a
  /// fully initialized header — everything but daemon_pid, which the
  /// caller stores last.  Staging segments publish epoch 0; canonical ones
  /// publish (largest predecessor epoch observed) + 1.  Also resets
  /// slot_local_ for the fresh segment.
  Shm bind_segment(const std::string& shm_name, bool cede_draining,
                   bool staging, std::uint64_t wait_ms);
  /// Records one trust-boundary violation against the slot; evicts the
  /// tenant when the strike limit is crossed.
  void strike(std::uint32_t index, SlotShared* slot);
  /// Forcibly un-claims a slot whose tenant proved byzantine: generation
  /// bump (outstanding seqs and late completions die on the generation
  /// check), ring reset, state back to kFree.  The evicted process's next
  /// wait observes the generation change and resolves typed.
  void evict(std::uint32_t index, SlotShared* slot);
  void sweep();
  void reclaim(std::uint32_t index, SlotShared* slot);
  /// Unlinks the segment name only when it still maps to *this* daemon's
  /// segment — after a handoff it is the successor's, and stays.
  void unlink_if_owned();
  /// Drain-completion half of a handoff: unlink the canonical name while
  /// still kDraining and remember it (name_released_) so no later path
  /// unlinks again — the successor owns the name from here on.
  void release_name();
  /// Creates (taking over a stale predecessor's) the observer-only stats
  /// page "<shm name>.stats" and publishes its immutable header fields.
  void bind_stats_page();
  /// Stages the Engine's telemetry snapshot + serving totals and publishes
  /// them into the stats page under the seqlock.  Service-thread only.
  void publish_stats_page();
  /// Unlinks and unmaps the stats page.  Ordered before the kStopped /
  /// shutdown publication on every exit path, so a successor that waits
  /// for those words can never lose its own freshly bound page to a late
  /// unlink from this process.
  void release_stats_page();

  ControlHeader* header() const { return layout_.header(shm_.data()); }
  SlotShared* slot(std::uint32_t index) const {
    return layout_.slot(shm_.data(), index);
  }
  double* arena(std::uint32_t index) const {
    return layout_.arena(shm_.data(), index);
  }

  DaemonOptions options_;
  Layout layout_;
  Shm shm_;
  Shm stats_shm_;  ///< observer-only telemetry page ("<shm name>.stats")
  /// The page each publish stages before stats_publish copies it out: the
  /// shared page is only ever written word by word, atomically.
  std::unique_ptr<StatsPage> stats_stage_;
  std::unique_ptr<api::Engine> engine_;
  api::ExecContext ctx_;  ///< service-thread scratch and staging for every run
  std::vector<Single> singles_;  ///< this poll round's admitted singles
  std::vector<double*> xs_;      ///< their vectors, grouped by n
  /// Daemon-private per-slot trust/budget state (credit bucket, strike
  /// ledger, last seq counter).  Lives here — never in the shared
  /// segment — so clients cannot rewrite their own budgets or rap sheets.
  /// Touched only by the service thread (and stats(), read-only, counters
  /// aside).  SlotLocal is incomplete here; ctor/dtor live in daemon.cpp.
  std::vector<SlotLocal> slot_local_;

  std::thread service_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> drain_deadline_ns_{0};
  std::mutex drain_mutex_;  ///< serializes drain() callers (cold path)
  std::uint64_t epoch_base_ = 0;  ///< canonical epoch seen at standby ctor
  bool name_released_ = false;    ///< drain ceded the name to a successor
  bool stopped_ = false;  ///< stop() ran to completion (segment unlinked)
};

}  // namespace whtlab::ipc
