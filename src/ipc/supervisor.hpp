// whtd's process-lifecycle layer: supervised serving, graceful drain, and
// zero-downtime rolling restarts.
//
// Library, not binary, so the chaos tests drive the exact code `whtd
// --supervise` ships (fork a child, call run_supervisor) instead of a
// reimplementation.  Two entry points:
//
//   serve()           — one serving process: Daemon + prewarm + signal
//                       handling.  SIGTERM begins a graceful drain
//                       (daemon.hpp); SIGINT stops immediately.  Standby
//                       children additionally speak the handoff pipe
//                       protocol below before they start serving.
//
//   run_supervisor()  — the watchdog: serves in a forked child and
//                       * restarts it (capped backoff, restart budget)
//                         when it crashes, is SIGKILLed, or wedges —
//                         a budget that RESETS once a child has served
//                         stable_ms, so a long-healthy daemon's crash is
//                         a fresh incident, not part of a crash loop;
//                       * on SIGHUP executes a warm-standby handoff: fork
//                         the successor FIRST (standby segment, the same
//                         DaemonOptions, Engine prewarmed from wisdom),
//                         wait for its readiness byte, only then SIGTERM
//                         the incumbent (drain) and send the successor
//                         its go byte — it promotes onto the canonical
//                         endpoint (the live predecessor finishes its
//                         in-flight work, then cedes by releasing the
//                         name at drain completion; epoch bump) and
//                         serves, warm.  Reconnect-enabled clients cross
//                         the restart with zero failures;
//                       * keeps --pid-file pointing at the *currently
//                         serving* child across every restart and handoff
//                         (atomic tmp+rename writes, unlinked on clean
//                         stop).
//
// Handoff pipe protocol (one byte each way): successor writes 'R' on the
// ready pipe after prewarm; supervisor writes 'G' on the go pipe after
// SIGTERMing the incumbent.  A closed pipe in either direction cancels the
// handoff — the incumbent keeps serving.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "ipc/daemon.hpp"

namespace whtlab::ipc {

/// Per-serving-process configuration (everything beyond DaemonOptions).
struct ServeOptions {
  bool prewarm = false;  ///< rebuild wisdom-recorded transforms before serving
  bool stats = false;    ///< print the shared-counter line every second
  bool once_ready = false;  ///< print READY on stdout once serving
  /// Pid file (atomic tmp+rename; unlinked on clean exit).  Leave empty
  /// under a supervisor — the supervisor owns the pid file and points it
  /// at whichever child currently serves.
  std::string pid_file;
};

/// One serving process: construct the Daemon, prewarm, (standby: handshake
/// the handoff pipes, promote,) serve until signalled, drain/stop.  Runs
/// the calling process's lifetime — intended for main() or a forked child.
/// `ready_fd` / `go_fd` are the handoff pipes (-1 outside a handoff).
int serve(const DaemonOptions& options, const ServeOptions& serve_options,
          int ready_fd = -1, int go_fd = -1);

struct SupervisorOptions {
  DaemonOptions daemon;  ///< what every (re)spawned child serves
  ServeOptions child;    ///< pid_file ignored — the supervisor owns it
  std::string pid_file;  ///< tracks the currently serving child
  /// Heartbeat staleness that counts as wedged (live pid, dead loop).
  std::int64_t wedge_ms = 10000;
  /// Give up after this many *unstable* restarts (0 = never).  The count
  /// resets once a child has served stable_ms.
  std::int64_t max_restarts = 0;
  /// Serving uptime that proves a child stable: crossing it resets the
  /// restart budget and backoff.
  std::uint64_t stable_ms = 60000;
  /// How long a SIGHUP handoff waits for the successor's readiness byte
  /// (its construct + prewarm) before aborting the handoff and keeping the
  /// incumbent.
  std::uint64_t handoff_ready_ms = 30000;
};

/// The watchdog loop (see file comment).  Returns the final child's exit
/// status on clean shutdown, 1 when the restart budget is exhausted.
/// Installs SIGINT/SIGTERM/SIGHUP handlers; call from a single-threaded
/// process (it forks).
int run_supervisor(const SupervisorOptions& options);

/// Atomic pid-file write: tmp + rename, so readers never see a torn or
/// empty file even mid-update.  Empty path = no-op.
void write_pid_file(const std::string& path, pid_t pid);
/// Removes the pid file (clean-stop path).  Empty path = no-op.
void remove_pid_file(const std::string& path);

/// Heartbeat staleness in ms for the endpoint's segment, or -1 when the
/// segment is missing/unreadable (daemon still booting — not a wedge).
std::int64_t heartbeat_age_ms(const std::string& endpoint);

}  // namespace whtlab::ipc
