// whtd — the whtlab shared-memory serving daemon (src/ipc/daemon.hpp).
//
// Owns one process-wide wht::Engine and serves every connected client
// process through zero-copy shm rings:
//
//   whtd &                          # serve endpoint "whtlab"
//   whtd --endpoint lab --slots 8 --credits 5000
//   whtd --stats                    # periodic counters + telemetry text
//   whtd --supervise --pid-file d.pid   # watchdog + rolling restarts
//
// The flags are the daemon's configuration: each one sets a DaemonOptions
// field, and DaemonOptions::validate() checks their ranges before anything
// is forked or bound.  (WHTLAB_SIMD and WHTLAB_FAULTS act on whtd as on
// any process.)  Signals:
//
//   SIGTERM  graceful drain (--drain-ms budget): stop admitting — new
//            submissions answer the typed kDraining — finish in-flight
//            work, wait for clients to consume their answers, flush
//            wisdom, then exit.
//   SIGINT   immediate stop: in-flight work is answered, waiters resolve
//            to kDaemonGone, the segment is unlinked.
//   SIGHUP   (supervisor only) zero-downtime rolling restart: fork a warm
//            standby successor, drain the incumbent, hand the endpoint
//            over — reconnect-enabled clients cross it with zero failures.
//
// --supervise runs the serving daemon in a forked child and restarts it
// (capped backoff, budget that resets after --stable-ms of healthy
// serving) whenever it crashes, is SIGKILLed, or wedges — a wedge being a
// live pid whose segment heartbeat (ControlHeader::heartbeat_ns) has not
// advanced within --wedge-ms.  --pid-file always records the *serving*
// pid (atomically, tmp+rename), tracking the current child across
// restarts and handoffs, so kill scripts hit the daemon and never the
// watchdog.  The heavy lifting lives in src/ipc/supervisor.hpp.
#include <cstdio>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>

#include "ipc/daemon.hpp"
#include "ipc/supervisor.hpp"
#include "util/cli.hpp"

namespace {

/// A numeric flag as `T`, in units of `scale` (ms flags feed ns fields): a
/// negative value, or one `T` cannot hold, throws instead of wrapping.
template <typename T>
T flag_value(const whtlab::util::Cli& cli, const char* name, T fallback,
             std::uint64_t scale = 1) {
  const std::int64_t value =
      cli.get_int(name, static_cast<std::int64_t>(fallback / scale));
  if (value < 0 || static_cast<std::uint64_t>(value) >
                       std::numeric_limits<T>::max() / scale) {
    throw std::invalid_argument(std::string("--") + name + "=" +
                                std::to_string(value) + " is out of range");
  }
  return static_cast<T>(static_cast<std::uint64_t>(value) * scale);
}

/// The library defaults with every flag applied.  A serving daemon arms
/// the Engine circuit breaker: it must degrade to the reference backend,
/// not crash or corrupt (3 strikes, the default probation).
whtlab::ipc::DaemonOptions options_from(const whtlab::util::Cli& cli) {
  whtlab::ipc::DaemonOptions options;
  options.engine.quarantine_strikes = 3;
  options.endpoint = cli.get("endpoint", options.endpoint);
  options.slots = flag_value(cli, "slots", options.slots);
  options.arena_doubles =
      flag_value(cli, "arena-doubles", options.arena_doubles);
  options.credit_limit = flag_value(cli, "credits", options.credit_limit);
  options.credit_window_ns = flag_value(cli, "credit-window-ms",
                                        options.credit_window_ns, 1000000ULL);
  options.strike_limit = flag_value(cli, "strikes", options.strike_limit);
  options.timeout_ms = flag_value(cli, "timeout-ms", options.timeout_ms);
  options.sweep_ms = flag_value(cli, "sweep-ms", options.sweep_ms);
  options.drain_ms = flag_value(cli, "drain-ms", options.drain_ms);
  options.engine.wisdom_file = cli.get("wisdom", options.engine.wisdom_file);
  options.validate();
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  whtlab::util::Cli cli;
  cli.add_flag("endpoint", "serving endpoint (segment /dev/shm/whtlab.<name>)");
  cli.add_flag("slots", "client slots (admission-control bound)");
  cli.add_flag("arena-doubles", "per-slot staging arena, in doubles");
  cli.add_flag("credits", "per-client work credits (vectors) per window (0 = off)");
  cli.add_flag("credit-window-ms", "credit bucket full-refill period, ms");
  cli.add_flag("strikes", "protocol strikes before slot eviction (0 = never evict)");
  cli.add_flag("timeout-ms", "published client wait deadline, ms");
  cli.add_flag("sweep-ms", "dead-client liveness sweep and stats-page publish period, ms");
  cli.add_flag("drain-ms", "graceful-drain budget for SIGTERM/handoffs, ms");
  cli.add_flag("wisdom", "wisdom file for first-touch planning");
  cli.add_flag("pid-file", "write the serving pid here (current child under --supervise)");
  cli.add_flag("wedge-ms", "supervisor: heartbeat staleness that counts as wedged");
  cli.add_flag("max-restarts", "supervisor: give up after this many unstable restarts (0 = never)");
  cli.add_flag("stable-ms", "supervisor: healthy uptime that resets the restart budget");
  cli.add_flag("handoff-ready-ms", "supervisor: successor prewarm bound for SIGHUP handoffs");
  cli.add_bool("stats", "print shared counters and telemetry every second");
  cli.add_bool("prewarm", "rebuild wisdom-recorded transforms before serving");
  cli.add_bool("once-ready", "print READY on stdout once serving (for scripts)");
  cli.add_bool("supervise", "watchdogged child: restart on crash/wedge, SIGHUP rolling restart");
  if (!cli.parse(argc, argv)) return 2;

  // Every numeric flag is parsed and range-checked here, before anything
  // is forked or bound: a bad value exits 2.
  whtlab::ipc::DaemonOptions options;
  whtlab::ipc::ServeOptions serve_options;
  whtlab::ipc::SupervisorOptions supervisor;
  try {
    options = options_from(cli);
    supervisor.wedge_ms = flag_value(cli, "wedge-ms", supervisor.wedge_ms);
    supervisor.max_restarts =
        flag_value(cli, "max-restarts", supervisor.max_restarts);
    supervisor.stable_ms = flag_value(cli, "stable-ms", supervisor.stable_ms);
    supervisor.handoff_ready_ms =
        flag_value(cli, "handoff-ready-ms", supervisor.handoff_ready_ms);
    if (supervisor.wedge_ms < 1) {
      throw std::invalid_argument("--wedge-ms must be >= 1");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "whtd: %s\n", e.what());
    return 2;
  }

  serve_options.stats = cli.has("stats");
  serve_options.prewarm = cli.has("prewarm");
  serve_options.once_ready = cli.has("once-ready");

  if (cli.has("supervise")) {
    supervisor.daemon = options;
    supervisor.child = serve_options;
    supervisor.pid_file = cli.get("pid-file", "");
    return whtlab::ipc::run_supervisor(supervisor);
  }
  serve_options.pid_file = cli.get("pid-file", "");
  return whtlab::ipc::serve(options, serve_options);
}
