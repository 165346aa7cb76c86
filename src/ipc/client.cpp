#include "ipc/client.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "ipc/futex.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace whtlab::ipc {

namespace {

namespace fault = util::fault;

bool pid_alive(std::uint32_t pid) {
  if (pid == 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

/// Liveness probes are syscalls; amortize them across wait slices.
constexpr std::uint64_t kLivenessProbeNs = 200000000ULL;  // 200 ms
constexpr std::int64_t kWaitSliceNs = 20000000LL;         // 20 ms

}  // namespace

Client Client::connect(const Options& options) {
  // Serving entry point: a WHTLAB_FAULTS spec set on the client process
  // arms its fault points here (no-op when unset).
  fault::arm_from_env();
  if (options.reconnect) {
    // Typed rejection, not silent clamping: a zero window or an inverted
    // backoff range is a configuration bug the caller must see.
    if (options.reconnect_window_ms < 1) {
      throw Error(Status::kBadRequest,
                  "ipc::Client: reconnect_window_ms must be >= 1");
    }
    if (options.backoff_initial_ms < 1) {
      throw Error(Status::kBadRequest,
                  "ipc::Client: backoff_initial_ms must be >= 1");
    }
    if (options.backoff_max_ms < options.backoff_initial_ms) {
      throw Error(Status::kBadRequest,
                  "ipc::Client: backoff_max_ms must be >= backoff_initial_ms");
    }
  }
  if (options.request_deadline_ms > 86400000) {
    throw Error(Status::kBadRequest,
                "ipc::Client: request_deadline_ms must be <= 86400000");
  }
  Client client;
  client.endpoint_ = options.endpoint;
  client.option_timeout_ms_ = options.timeout_ms;
  client.reconnect_ = options.reconnect;
  client.reconnect_window_ms_ = options.reconnect_window_ms;
  client.backoff_initial_ms_ = options.backoff_initial_ms;
  client.backoff_max_ms_ = options.backoff_max_ms;
  client.drain_ms_ = options.drain_ms;
  client.request_deadline_ms_ = options.request_deadline_ms;
  client.attach_endpoint();
  return client;
}

void Client::attach_endpoint() {
  const std::string name = shm_name_for(endpoint_);
  try {
    shm_ = Shm::open(name);
  } catch (const std::runtime_error& error) {
    throw Error(Status::kDaemonGone,
                "ipc::Client: no daemon at '" + endpoint_ +
                    "' (" + error.what() + ")");
  }
  if (shm_.size() < sizeof(ControlHeader)) {
    throw Error(Status::kBadRequest, "ipc::Client: runt control segment");
  }
  ControlHeader* hdr = static_cast<ControlHeader*>(shm_.data());
  if (hdr->magic != kMagic || hdr->version != kVersion) {
    throw Error(Status::kBadRequest,
                "ipc::Client: segment version mismatch (daemon built from "
                "a different protocol revision?)");
  }
  if (hdr->abi != abi_tag() || hdr->ring_depth != kRingDepth) {
    throw Error(Status::kBadRequest,
                "ipc::Client: segment ABI mismatch — rebuild client or "
                "daemon");
  }
  if (hdr->shutdown.load(std::memory_order_acquire) != 0 ||
      !pid_alive(hdr->daemon_pid.load(std::memory_order_acquire))) {
    throw Error(Status::kDaemonGone,
                "ipc::Client: daemon for '" + endpoint_ +
                    "' is shut down or dead");
  }
  const auto lifecycle = static_cast<Lifecycle>(
      hdr->lifecycle.load(std::memory_order_acquire));
  if (lifecycle == Lifecycle::kDraining || lifecycle == Lifecycle::kStopped) {
    // Planned restart in progress: the predecessor still holds the name
    // while it drains, but admits nothing.  Typed so the reconnect engine
    // can fast-poll for the successor instead of backing off.
    throw Error(Status::kDraining,
                "ipc::Client: daemon for '" + endpoint_ +
                    "' is draining (planned restart); retry — a warm "
                    "successor is taking the endpoint over");
  }
  layout_.slot_count = hdr->slot_count;
  layout_.arena_doubles = hdr->arena_doubles;
  if (shm_.size() < layout_.total_bytes()) {
    throw Error(Status::kBadRequest, "ipc::Client: truncated segment");
  }
  timeout_ms_ = option_timeout_ms_ != 0 ? option_timeout_ms_ : hdr->timeout_ms;

  // Admission control: claim the first free slot by CAS.  Losing every CAS
  // and finding no kFree cell is the typed "server full" answer.
  for (std::uint32_t s = 0; s < hdr->slot_count; ++s) {
    SlotShared* cell = layout_.slot(shm_.data(), s);
    std::uint32_t expected = kFree;
    if (!cell->state.compare_exchange_strong(expected, kClaimed,
                                             std::memory_order_acq_rel)) {
      continue;
    }
    // Ours alone now: the daemon ignores non-kActive slots, other clients
    // lost the CAS.  Publish identity, reset the rings from any previous
    // tenancy, then go active.
    slot_index_ = s;
    generation_ = cell->generation.fetch_add(1, std::memory_order_acq_rel) + 1;
    cell->pid.store(static_cast<std::uint32_t>(::getpid()),
                    std::memory_order_release);
    cell->requests.reset();
    cell->responses.reset();
    cell->state.store(kActive, std::memory_order_release);
    arena_.attach(layout_.arena(shm_.data(), s),
                  static_cast<std::size_t>(hdr->arena_doubles));
    attached_ = true;
    return;
  }
  throw Error(Status::kServerFull,
              "ipc::Client: all " + std::to_string(hdr->slot_count) +
                  " client slots of '" + endpoint_ +
                  "' are claimed (admission control)");
}

bool Client::wait_for_daemon(const std::string& endpoint,
                             std::uint64_t wait_ms) {
  const std::string name = shm_name_for(endpoint);
  const std::uint64_t deadline = monotonic_ns() + wait_ms * 1000000ULL;
  do {
    if (Shm::exists(name)) {
      try {
        const Shm probe = Shm::open(name);
        if (probe.size() >= sizeof(ControlHeader)) {
          const auto* hdr = static_cast<const ControlHeader*>(probe.data());
          if (hdr->magic == kMagic &&
              hdr->shutdown.load(std::memory_order_acquire) == 0 &&
              pid_alive(hdr->daemon_pid.load(std::memory_order_acquire)) &&
              hdr->lifecycle.load(std::memory_order_acquire) <=
                  Lifecycle::kServing) {
            return true;  // booting/warming/serving; never a draining corpse
          }
        }
      } catch (const std::runtime_error&) {
        // Unlinked between exists and open; keep polling.
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  } while (monotonic_ns() < deadline);
  return false;
}

Client::~Client() {
  if (!attached_ || !shm_.valid()) return;
  // Drain what is in flight so the daemon is not mid-conversation with a
  // freed slot; bounded by drain_ms — a dead (or wedged) daemon must not
  // hang our destructor.
  const std::uint64_t deadline = monotonic_ns() + drain_ms_ * 1000000ULL;
  while (!outstanding_.empty() && daemon_alive() &&
         monotonic_ns() < deadline) {
    if (wait_any_response(deadline) != Status::kOk) break;
  }
  SlotShared* cell = slot();
  std::uint32_t expected = kActive;
  cell->pid.store(0, std::memory_order_release);
  cell->state.compare_exchange_strong(expected, kFree,
                                      std::memory_order_acq_rel);
}

bool Client::daemon_alive() const {
  const ControlHeader* hdr = header();
  if (hdr->shutdown.load(std::memory_order_acquire) != 0) return false;
  return pid_alive(hdr->daemon_pid.load(std::memory_order_acquire));
}

void Client::ring_doorbell() {
  header()->doorbell.fetch_add(1, std::memory_order_release);
  futex_wake_all(header()->doorbell);
}

std::uint64_t Client::make_seq() {
  return (generation_ << 32) | std::uint64_t{next_counter_++};
}

std::uint64_t Client::deadline_from_now() const {
  // A resilient client's per-request deadline covers one full outage: the
  // serve timeout plus the whole reconnect window.
  const std::uint64_t budget_ms =
      timeout_ms_ + (reconnect_ ? reconnect_window_ms_ : 0);
  return monotonic_ns() + budget_ms * 1000000ULL;
}

bool Client::try_reconnect() {
  if (!reconnect_) return false;
  if (attached_ && shm_.valid()) {
    // Release the old slot before walking away: a draining daemon's
    // handoff completes only once every live slot's rings are consumed,
    // and the answers still queued here (typed kDraining refusals
    // included) will never be read — they replay on the successor
    // instead.  Without this, every abandoned slot holds the predecessor's
    // drain open until its deadline aborts it.
    SlotShared* cell = slot();
    cell->pid.store(0, std::memory_order_release);
    std::uint32_t expected = kActive;
    cell->state.compare_exchange_strong(expected, kFree,
                                        std::memory_order_acq_rel);
    // Keep the dead mapping alive for the Client's lifetime: the caller
    // holds stage() pointers (and awaits results) inside its arena.
    retired_.push_back(std::move(shm_));
  }
  attached_ = false;
  // Wire seqs of the dead connection can never be answered; replay below
  // assigns fresh ones under the new generation.
  wire_to_ticket_.clear();

  util::Rng jitter;
  jitter.reseed(monotonic_ns() ^
                (static_cast<std::uint64_t>(::getpid()) << 32));
  const std::uint64_t deadline =
      monotonic_ns() + reconnect_window_ms_ * 1000000ULL;
  std::uint64_t delay_ms = backoff_initial_ms_;
  for (;;) {
    bool draining = false;
    try {
      attach_endpoint();
      break;
    } catch (const Error& error) {
      // kDaemonGone (not back yet), kServerFull (slots still claimed by
      // other reconnecting clients) — retry with backoff.  kDraining is the
      // planned-restart signal: the predecessor still holds the name while
      // it drains and a warm successor takes over any instant now.
      draining = error.status() == Status::kDraining;
    } catch (const std::exception&) {
      // runtime_error — retry.
    }
    const std::uint64_t now = monotonic_ns();
    if (now >= deadline) return false;
    if (draining) {
      // Short-circuit the backoff: poll fast and do not grow the delay —
      // this is a coordinated handoff, not an outage or a stampede.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    // Capped exponential backoff with uniform jitter in [0, delay/2]:
    // a daemon restart must not be met by a synchronized client stampede.
    std::uint64_t sleep_ms = delay_ms + jitter.next() % (delay_ms / 2 + 1);
    sleep_ms = std::min<std::uint64_t>(sleep_ms,
                                       (deadline - now) / 1000000ULL + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    delay_ms = std::min(delay_ms * 2, backoff_max_ms_);
  }
  reconnects_ += 1;

  // Replay every unacknowledged request, oldest ticket first: re-stage its
  // pristine snapshot into the fresh arena and resubmit under the new
  // generation.  A replay that cannot be placed resolves to a typed Status
  // instead of vanishing.
  const std::uint64_t push_deadline =
      monotonic_ns() + timeout_ms_ * 1000000ULL;
  const std::vector<std::uint64_t> seqs(outstanding_.begin(),
                                        outstanding_.end());
  for (const std::uint64_t seq : seqs) {
    Inflight& fl = inflight_.at(seq);
    const std::size_t need =
        static_cast<std::size_t>(std::uint64_t{1} << fl.n) * fl.count;
    Status status = Status::kOk;
    double* p =
        need <= arena_.max_allocation() ? arena_.allocate(need) : nullptr;
    if (p == nullptr) {
      status = Status::kTooLarge;  // the new daemon's arena is smaller
    } else {
      std::memcpy(p, fl.snapshot.data(), need * sizeof(double));
      fl.current = p;
      status = push_request(seq, push_deadline);
    }
    if (status != Status::kOk) {
      outstanding_.erase(seq);
      inflight_.erase(seq);
      completed_[seq] = status;
    }
  }
  return true;
}

Status Client::push_request(std::uint64_t ticket_seq,
                            std::uint64_t deadline_ns) {
  Inflight& fl = inflight_.at(ticket_seq);
  // First submission rides the ticket seq itself; a replay needs a fresh
  // wire seq because the slot generation changed underneath the ticket.
  const std::uint64_t wire =
      (ticket_seq >> 32) == (generation_ & 0xffffffffULL) ? ticket_seq
                                                          : make_seq();
  Request request;
  request.seq = wire;
  request.n = fl.n;
  request.count = fl.count;
  request.offset = arena_.offset_of(fl.current);
  request.deadline_ns = fl.deadline_ns;
  const auto push = [&] {
    // Injected full ring: exercises the retry path below on demand.
    if (fault::enabled() && fault::point("ipc.ring.publish")) return false;
    return slot()->requests.try_push(request);
  };
  while (!push()) {
    // Request ring full: the daemon is behind; give it room.
    if (!daemon_alive()) return Status::kDaemonGone;
    if (monotonic_ns() >= deadline_ns) return Status::kTimeout;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  wire_to_ticket_.erase(fl.wire_seq);
  fl.wire_seq = wire;
  wire_to_ticket_[wire] = ticket_seq;
  ring_doorbell();
  return Status::kOk;
}

double* Client::stage(int n, std::size_t count) {
  if (n < 1 || n > 30 || count < 1) {
    throw Error(Status::kBadRequest, "ipc::Client::stage: bad shape");
  }
  if (!attached_ && !try_reconnect()) {
    throw Error(Status::kDaemonGone, "ipc::Client::stage: not connected");
  }
  const std::uint64_t need = (std::uint64_t{1} << n) * count;
  if (need > arena_.max_allocation()) {
    throw Error(Status::kTooLarge,
                "ipc::Client::stage: " + std::to_string(need) +
                    " doubles exceed the slot arena (" +
                    std::to_string(arena_.capacity()) +
                    "); raise the daemon's arena_doubles (whtd "
                    "--arena-doubles)");
  }
  double* p = arena_.allocate(static_cast<std::size_t>(need));
  if (p != nullptr) return p;
  // The arena is packed with earlier requests.  Wait out everything in
  // flight, then recycle it whole (documented: invalidates earlier staged
  // results).
  const std::uint64_t deadline = deadline_from_now();
  while (!outstanding_.empty()) {
    const Status status = wait_any_response(deadline);
    if (status == Status::kDaemonGone && try_reconnect()) continue;
    if (status != Status::kOk) {
      throw Error(status, "ipc::Client::stage: draining in-flight requests "
                          "failed while recycling the arena");
    }
  }
  arena_.reset();
  p = arena_.allocate(static_cast<std::size_t>(need));
  return p;  // cannot fail: need <= max_allocation and the arena is empty
}

Status Client::submit(int n, double* staged, std::size_t count,
                      Ticket& ticket) {
  if (n < 1 || n > 30 || count < 1) return Status::kBadRequest;
  if (!attached_ && !try_reconnect()) return Status::kDaemonGone;
  if (!daemon_alive() && !try_reconnect()) return Status::kDaemonGone;
  // Backpressure: keep outstanding responses below the ring depth so the
  // daemon's response push can never meet a full ring.
  const std::uint64_t deadline = deadline_from_now();
  while (outstanding_.size() >= kRingDepth - 1) {
    const Status status = wait_any_response(deadline);
    if (status == Status::kDaemonGone && try_reconnect()) continue;
    if (status != Status::kOk) return status;
  }
  const std::size_t need =
      static_cast<std::size_t>(std::uint64_t{1} << n) * count;
  double* current = staged;
  if (!arena_.contains(staged)) {
    // Staged before a reconnect: the pointer names retired memory the new
    // daemon cannot see.  Re-home the bytes into the live arena (the
    // retired mapping keeps them readable).
    if (!reconnect_) return Status::kBadRequest;
    if (need > arena_.max_allocation()) return Status::kTooLarge;
    current = arena_.allocate(need);
    if (current == nullptr) {
      const std::uint64_t drain_deadline = deadline_from_now();
      while (!outstanding_.empty()) {
        const Status status = wait_any_response(drain_deadline);
        if (status == Status::kDaemonGone && try_reconnect()) continue;
        if (status != Status::kOk) return status;
      }
      arena_.reset();
      current = arena_.allocate(need);
    }
    std::memcpy(current, staged, need * sizeof(double));
  }
  const std::uint64_t seq = make_seq();
  Inflight fl;
  fl.n = static_cast<std::uint32_t>(n);
  fl.count = static_cast<std::uint32_t>(count);
  fl.data = staged;
  fl.current = current;
  if (request_deadline_ms_ != 0) {
    fl.deadline_ns = monotonic_ns() + request_deadline_ms_ * 1000000ULL;
  }
  if (reconnect_) fl.snapshot.assign(current, current + need);
  inflight_[seq] = std::move(fl);
  outstanding_.insert(seq);
  Status pushed = push_request(seq, deadline);
  if (pushed == Status::kDaemonGone && try_reconnect()) {
    // The replay inside try_reconnect resubmitted (or typed-failed) it.
    pushed = Status::kOk;
  }
  if (pushed != Status::kOk) {
    outstanding_.erase(seq);
    inflight_.erase(seq);
    return pushed;
  }
  ticket.seq = seq;
  ticket.data = staged;
  ticket.n = static_cast<std::uint32_t>(n);
  ticket.count = static_cast<std::uint32_t>(count);
  return Status::kOk;
}

void Client::drain_responses() {
  Response response;
  while (slot()->responses.try_pop(response)) {
    if ((response.seq >> 32) != (generation_ & 0xffffffffULL)) {
      continue;  // a previous tenant's stale answer
    }
    const auto w = wire_to_ticket_.find(response.seq);
    if (w == wire_to_ticket_.end()) continue;  // duplicate or pre-replay echo
    const std::uint64_t ticket_seq = w->second;
    const Status status = static_cast<Status>(response.status);
    if (status == Status::kDraining) {
      drain_notices_ += 1;
      last_drain_hint_ms_ = response.hint_ms;
      if (reconnect_) {
        // Planned restart: the request was refused, not executed.  Keep the
        // ticket outstanding (its snapshot and wire mapping die, its replay
        // state lives) and flag the drain — the next wait re-handshakes
        // against the successor immediately and replays it there.
        wire_to_ticket_.erase(w);
        drain_notice_ = true;
        continue;
      }
    }
    wire_to_ticket_.erase(w);
    outstanding_.erase(ticket_seq);
    const auto fl = inflight_.find(ticket_seq);
    if (fl != inflight_.end()) {
      if (status == Status::kOk && fl->second.current != fl->second.data) {
        // A replayed request ran in the fresh arena; land the result where
        // the caller's (retired-arena) pointer says it is.
        const std::size_t doubles =
            static_cast<std::size_t>(std::uint64_t{1} << fl->second.n) *
            fl->second.count;
        std::memcpy(fl->second.data, fl->second.current,
                    doubles * sizeof(double));
      }
      inflight_.erase(fl);
    }
    completed_[ticket_seq] = status;
  }
  // Abandoned (timed-out, never wait()ed) completions must not accumulate
  // forever on a long-lived client.
  if (completed_.size() > 4 * kRingDepth) {
    completed_.erase(completed_.begin(),
                     std::prev(completed_.end(), 2 * kRingDepth));
  }
}

Status Client::wait_any_response(std::uint64_t deadline_ns) {
  const std::size_t before = completed_.size();
  std::uint64_t next_probe = 0;
  for (;;) {
    drain_responses();
    if (drain_notice_) {
      // A planned-restart refusal for a still-outstanding ticket: resolve
      // like a daemon loss so every caller's existing reconnect branch
      // re-handshakes (fast-polled, see try_reconnect) and replays it.
      drain_notice_ = false;
      return Status::kDaemonGone;
    }
    if (completed_.size() > before || outstanding_.empty()) return Status::kOk;
    const std::uint64_t now = monotonic_ns();
    if (now >= deadline_ns) return Status::kTimeout;
    if (now >= next_probe) {
      if (!daemon_alive()) return Status::kDaemonGone;
      if (reconnect_ &&
          header()->lifecycle.load(std::memory_order_acquire) >=
              Lifecycle::kDraining) {
        // The daemon entered its drain while we wait.  It would still
        // deliver our in-flight answers, but the successor is already (or
        // imminently) serving — migrate now and replay there rather than
        // ride out the predecessor's drain window.
        return Status::kDaemonGone;
      }
      // Eviction probe: a daemon that struck us out bumped the generation
      // and freed the slot — our outstanding seqs can never be answered.
      // Resolve like a daemon loss (a resilient client re-handshakes and
      // replays; a plain one gets the typed answer) instead of waiting out
      // the full timeout on a ring nobody will fill.
      SlotShared* cell = slot();
      if (cell->state.load(std::memory_order_acquire) != kActive ||
          cell->generation.load(std::memory_order_acquire) != generation_) {
        return Status::kDaemonGone;
      }
      next_probe = now + kLivenessProbeNs;
    }
    const auto& word = slot()->responses.tail;
    const std::uint32_t seen = word.load(std::memory_order_acquire);
    drain_responses();
    if (completed_.size() > before || outstanding_.empty()) return Status::kOk;
    spin_then_wait(
        word, seen, /*spins=*/2000,
        std::min<std::int64_t>(kWaitSliceNs,
                               static_cast<std::int64_t>(deadline_ns - now)));
  }
}

Status Client::wait_seq(std::uint64_t seq, double*) {
  const std::uint64_t deadline = deadline_from_now();
  for (;;) {
    const auto it = completed_.find(seq);
    if (it != completed_.end()) {
      const Status status = it->second;
      completed_.erase(it);
      return status;
    }
    if (outstanding_.count(seq) == 0) {
      // Neither pending nor completed: waited twice, or the completion was
      // evicted from the abandoned-response cache.
      return Status::kBadRequest;
    }
    if (!attached_) {
      if (!try_reconnect()) return Status::kDaemonGone;
      continue;
    }
    const Status status = wait_any_response(deadline);
    if (status == Status::kDaemonGone && try_reconnect()) continue;
    if (status != Status::kOk) return status;
  }
}

Status Client::wait(const Ticket& ticket) {
  if (!attached_ && !reconnect_) return Status::kDaemonGone;
  return wait_seq(ticket.seq, ticket.data);
}

Status Client::transform(int n, double* staged, std::size_t count) {
  Ticket ticket;
  const Status submitted = submit(n, staged, count, ticket);
  if (submitted != Status::kOk) return submitted;
  return wait(ticket);
}

Status Client::transform_copy(int n, double* data, std::size_t count) {
  double* staged = nullptr;
  try {
    staged = stage(n, count);
  } catch (const Error& error) {
    return error.status();
  }
  const std::uint64_t bytes =
      (std::uint64_t{1} << n) * count * sizeof(double);
  std::memcpy(staged, data, bytes);
  const Status status = transform(n, staged, count);
  if (status == Status::kOk) std::memcpy(data, staged, bytes);
  return status;
}

Client::DaemonStats Client::stats() const {
  if (!attached_ || !shm_.valid()) return {};
  return load_counters(header()->stats);
}

Lifecycle Client::daemon_lifecycle() const {
  if (!attached_ || !shm_.valid()) return Lifecycle::kStopped;
  return static_cast<Lifecycle>(
      header()->lifecycle.load(std::memory_order_acquire));
}

std::uint64_t Client::credits() const {
  if (!attached_ || !shm_.valid()) return 0;
  return slot()->credits.load(std::memory_order_relaxed);
}

}  // namespace whtlab::ipc
