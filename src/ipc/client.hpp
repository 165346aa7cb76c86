// wht::ipc::Client — the client side of the whtd shared-memory protocol.
//
// The two-call happy path stages vectors straight into shared memory (zero
// copies cross the process boundary) and serves them in place:
//
//   auto client = whtlab::ipc::Client::connect({.endpoint = "whtlab"});
//   double* x = client.stage(n);          // shm arena pointer — write here
//   ... fill x[0 .. 2^n) ...
//   auto status = client.transform(n, x); // blocks; result is in x
//
// Batches stage `count` packed vectors (`stage(n, count)`), pipelining uses
// submit()/wait() tickets.  The serving calls return a typed Status instead
// of throwing — kThrottled, kTimeout, kDaemonGone are answers a serving
// client must branch on, not crashes — while connect() and stage() throw
// ipc::Error (kServerFull, kDaemonGone, kTooLarge), because failing there
// is exceptional.
//
// Lifecycle: connect() claims a client slot by CAS in the control segment
// (admission control — no free slot is a typed kServerFull), publishes the
// pid for the daemon's liveness sweep, and bumps the slot generation; the
// destructor drains in-flight requests (bounded) and frees the slot.  If
// the daemon dies, every blocked or future call resolves to kDaemonGone —
// detected via the shutdown flag (clean exit) or a pid liveness probe
// (SIGKILL) — rather than hanging.
//
// A Client is NOT thread-safe (one slot = one request stream); concurrency
// comes from connecting more clients, which is the point of the daemon.
//
// Resilience (opt-in, Options::reconnect): when any call answers
// kDaemonGone, the client re-handshakes against the endpoint with capped
// exponential backoff until reconnect_window_ms elapses, re-stages every
// unacknowledged request from a pristine input snapshot into the fresh
// arena, and resubmits it under the new slot generation.  Results of
// replayed requests are copied back to the caller's original staged
// pointers (the old mapping is kept alive for exactly this), so tickets
// and pointers taken before the crash stay valid across it.  A request is
// never silently dropped: it completes bit-exactly or resolves to a typed
// Status once the window closes.
//
// Handoffs (protocol v4): a draining daemon (planned restart, whtd
// --supervise) answers new submissions with the typed kDraining and
// publishes kDraining in the header's lifecycle word.  A resilient client
// treats either signal as "re-handshake now": the capped backoff is
// short-circuited to a ~1 ms poll — the warm successor takes the endpoint
// over mid-drain — and the refused requests replay there under the new
// generation.  A stream of verified transforms crosses a planned restart
// with zero failed requests; non-resilient clients get kDraining as a
// typed answer and decide for themselves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ipc/protocol.hpp"
#include "ipc/shm.hpp"
#include "util/scratch_arena.hpp"

namespace whtlab::ipc {

class Client {
 public:
  struct Options {
    std::string endpoint = "whtlab";
    /// Per-wait deadline; 0 = the daemon's published timeout_ms.
    std::uint64_t timeout_ms = 0;
    /// Transparent auto-reconnect on kDaemonGone (see the class comment).
    /// Off by default: a non-resilient client pays zero snapshot copies.
    bool reconnect = false;
    /// Total time budget for one outage: handshake attempts (with backoff)
    /// stop and kDaemonGone becomes the final answer once this elapses.
    std::uint64_t reconnect_window_ms = 10000;
    /// First retry delay; doubles per failed attempt up to backoff_max_ms,
    /// each with uniform jitter in [0, delay/2] to avoid reconnect stampedes.
    std::uint64_t backoff_initial_ms = 5;
    std::uint64_t backoff_max_ms = 500;
    /// Destructor drain bound: how long ~Client waits for in-flight
    /// requests before abandoning them and freeing the slot.
    std::uint64_t drain_ms = 500;
    /// Per-request execution deadline stamped into every wire request
    /// (Request::deadline_ns = submit time + this).  A daemon with load
    /// shedding armed drops a request still queued past its deadline with
    /// a typed kTimeout instead of executing it — the client's way of
    /// saying "after this long, the answer is worthless, don't burn cycles
    /// on it".  The stamp survives replay unchanged: the deadline bounds
    /// total latency, outages included.  0 = no deadline (never shed).
    std::uint64_t request_deadline_ms = 0;
  };

  /// In-flight request handle.  `data` is the staged region the result
  /// lands in; valid until the arena wraps (see stage()).
  struct Ticket {
    std::uint64_t seq = 0;
    double* data = nullptr;
    std::uint32_t n = 0;
    std::uint32_t count = 0;
  };

  /// Maps the endpoint's segment and claims a slot.  Throws ipc::Error:
  /// kDaemonGone (no segment / daemon dead / shutting down), kServerFull
  /// (admission control), kBadRequest (version/ABI mismatch).
  static Client connect(const Options& options);
  static Client connect() { return connect(Options{}); }

  /// Polls until a live daemon serves `endpoint` or `wait_ms` elapses —
  /// the "daemon is still booting" helper for tests and scripts.
  static bool wait_for_daemon(const std::string& endpoint,
                              std::uint64_t wait_ms);

  Client(Client&&) noexcept = default;
  Client& operator=(Client&&) noexcept = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();  ///< drains in-flight (bounded), releases the slot

  /// A staging region for `count` packed vectors of 2^n doubles, inside
  /// this client's shm arena — write inputs here, read results here.
  /// Sequential stage() calls pack the arena; when a request does not fit
  /// next to the live ones, stage() first waits for all in-flight requests
  /// and recycles the arena — which invalidates *earlier* staged results.
  /// Read (or copy out) results before staging past the arena size.
  /// Throws ipc::Error(kTooLarge) when the request can never fit, and
  /// kTimeout/kDaemonGone if draining the arena fails.
  double* stage(int n, std::size_t count = 1);

  /// Blocking round-trip: submits the staged region and waits.  On kOk the
  /// transform happened in place at `staged`.
  Status transform(int n, double* staged, std::size_t count = 1);

  /// Pipelined submission; pair each with wait().  At most ring-depth - 1
  /// requests may be in flight — beyond that submit() blocks on the oldest
  /// response (backpressure, not an error).
  Status submit(int n, double* staged, std::size_t count, Ticket& ticket);
  Status wait(const Ticket& ticket);

  /// Convenience for callers with vectors outside the arena: stages a
  /// copy, transforms, copies the spectrum back into `data`.  Costs the
  /// two copies the zero-copy path exists to avoid.
  Status transform_copy(int n, double* data, std::size_t count = 1);

  /// Capacity of this client's staging arena, in doubles.
  std::size_t arena_capacity() const { return arena_.capacity(); }
  std::size_t inflight() const { return outstanding_.size(); }
  int slot_index() const { return static_cast<int>(slot_index_); }
  /// Successful re-handshakes since connect() (0 without Options::reconnect).
  std::uint64_t reconnects() const { return reconnects_; }
  /// Typed kDraining answers observed (planned-restart refusals that were
  /// replayed — or, without reconnect, returned to the caller).
  std::uint64_t drain_notices() const { return drain_notices_; }
  /// The retry hint carried by the most recent kDraining answer.
  std::int32_t last_drain_hint_ms() const { return last_drain_hint_ms_; }
  /// The daemon's published lifecycle word (kStopped when detached).
  Lifecycle daemon_lifecycle() const;

  /// The daemon's live shared counters (read straight from the segment —
  /// the stats-export path; no request round-trip).
  using DaemonStats = DaemonCounters;
  DaemonStats stats() const;

  /// The daemon-published advisory credit balance for this slot (pacing
  /// hint; the binding balance is daemon-local).  Meaningful only when the
  /// daemon runs with credit flow control armed — otherwise it stays at the
  /// published credit_limit of 0.
  std::uint64_t credits() const;

 private:
  Client() = default;

  ControlHeader* header() const { return layout_.header(shm_.data()); }
  SlotShared* slot() const { return layout_.slot(shm_.data(), slot_index_); }

  bool daemon_alive() const;
  void ring_doorbell();
  void drain_responses();
  Status wait_seq(std::uint64_t seq, double* data_hint);
  Status wait_any_response(std::uint64_t deadline_ns);
  std::uint64_t make_seq();
  std::uint64_t deadline_from_now() const;

  /// One handshake against endpoint_: open + validate the segment, claim a
  /// slot, attach the arena.  Throws ipc::Error.  Shared by connect() and
  /// the reconnect path.
  void attach_endpoint();
  /// The reconnect engine: retires the dead mapping, re-handshakes with
  /// capped exponential backoff inside reconnect_window_ms_, replays every
  /// unacknowledged request.  False when disabled or the window closes.
  bool try_reconnect();
  /// Pushes one wire request for a (possibly replayed) in-flight entry.
  Status push_request(std::uint64_t ticket_seq, std::uint64_t deadline_ns);

  /// Everything needed to replay (and route the answer of) one request.
  struct Inflight {
    std::uint32_t n = 0;
    std::uint32_t count = 0;
    double* data = nullptr;     ///< caller's staged region (original arena)
    double* current = nullptr;  ///< live location in the *current* arena
    std::uint64_t wire_seq = 0;
    /// Absolute shed deadline stamped at first submit; replays carry it
    /// unchanged (a deadline bounds total latency, outages included).
    std::uint64_t deadline_ns = 0;
    std::vector<double> snapshot;  ///< pristine input (reconnect mode only)
  };

  Shm shm_;
  Layout layout_;
  std::uint32_t slot_index_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t timeout_ms_ = 5000;
  std::uint32_t next_counter_ = 1;
  util::BumpArena arena_;
  std::set<std::uint64_t> outstanding_;        ///< ticket seqs, not yet answered
  std::map<std::uint64_t, Status> completed_;  ///< answered, not yet wait()ed
  std::map<std::uint64_t, Inflight> inflight_;         ///< ticket seq → replay state
  std::map<std::uint64_t, std::uint64_t> wire_to_ticket_;
  std::vector<Shm> retired_;  ///< pre-crash mappings kept so old pointers stay valid
  std::string endpoint_;
  bool reconnect_ = false;
  std::uint64_t reconnect_window_ms_ = 10000;
  std::uint64_t backoff_initial_ms_ = 5;
  std::uint64_t backoff_max_ms_ = 500;
  std::uint64_t drain_ms_ = 500;
  std::uint64_t option_timeout_ms_ = 0;
  std::uint64_t request_deadline_ms_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t drain_notices_ = 0;
  std::int32_t last_drain_hint_ms_ = 0;
  /// A kDraining answer arrived for a still-outstanding ticket: the next
  /// wait turns it into an immediate re-handshake (reconnect mode only).
  bool drain_notice_ = false;
  bool attached_ = false;
};

}  // namespace whtlab::ipc
