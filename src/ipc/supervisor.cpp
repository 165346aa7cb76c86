#include "ipc/supervisor.hpp"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <thread>

#include "api/engine.hpp"
#include "ipc/shm.hpp"
#include "telemetry/registry.hpp"

namespace whtlab::ipc {

namespace {

/// How long a SIGTERMed serving process may outlive its drain budget:
/// serve() waits drain_ms + this for the drain to finish, and the
/// supervisor waits as long before it SIGKILLs the child.
constexpr std::uint64_t kDrainGraceMs = 2000;

/// serve()'s shutdown request: the signal number, 0 while serving.
std::atomic<int> g_serve_signal{0};
void on_serve_signal(int sig) {
  g_serve_signal.store(sig, std::memory_order_relaxed);
}

/// run_supervisor()'s pending signals.
std::atomic<int> g_super_term{0};
std::atomic<int> g_super_hup{0};
void on_super_term(int sig) {
  g_super_term.store(sig, std::memory_order_relaxed);
}
void on_super_hup(int) { g_super_hup.store(1, std::memory_order_relaxed); }

void print_stats(Daemon& daemon) {
  std::printf("whtd: %s\n", to_string(daemon.stats()).c_str());
  // The same snapshot the shm stats page exports (whtd_stat renders it out
  // of process), in the Prometheus exposition.
  std::fputs(telemetry::to_text(daemon.engine().telemetry_snapshot()).c_str(),
             stdout);
  std::fflush(stdout);
}

bool write_byte(int fd, char byte) {
  ssize_t wrote;
  do {
    wrote = ::write(fd, &byte, 1);
  } while (wrote < 0 && errno == EINTR);
  return wrote == 1;
}

/// Reads the single handshake byte, riding out EINTR.  0 on EOF/error.
char read_byte(int fd) {
  char byte = 0;
  ssize_t got;
  do {
    got = ::read(fd, &byte, 1);
  } while (got < 0 && errno == EINTR);
  return got == 1 ? byte : 0;
}

}  // namespace

void write_pid_file(const std::string& path, pid_t pid) {
  if (path.empty()) return;
  // tmp + rename: a kill script that reads mid-update sees either the old
  // complete pid or the new complete pid, never a torn or empty file.
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  std::FILE* f = std::fopen(temp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "whtd: cannot write pid file %s\n", temp.c_str());
    return;
  }
  std::fprintf(f, "%d\n", static_cast<int>(pid));
  std::fclose(f);
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    std::fprintf(stderr, "whtd: cannot rename pid file onto %s\n",
                 path.c_str());
  }
}

void remove_pid_file(const std::string& path) {
  if (!path.empty()) std::remove(path.c_str());
}

std::int64_t heartbeat_age_ms(const std::string& endpoint) {
  try {
    // Read-only mapping: the watchdog is a pure observer — it must not be
    // *able* to perturb the protocol state it judges.
    const Shm probe = Shm::open_readonly(shm_name_for(endpoint));
    if (probe.size() < sizeof(ControlHeader)) return -1;
    const auto* hdr = static_cast<const ControlHeader*>(probe.data());
    if (hdr->magic != kMagic) return -1;
    const std::uint64_t hb = hdr->heartbeat_ns.load(std::memory_order_relaxed);
    if (hb == 0) return -1;  // service loop not entered yet
    const std::uint64_t now = monotonic_ns();
    return now <= hb ? 0 : static_cast<std::int64_t>((now - hb) / 1000000ULL);
  } catch (const std::exception&) {
    return -1;
  }
}

int serve(const DaemonOptions& options, const ServeOptions& serve_options,
          int ready_fd, int go_fd) {
  g_serve_signal.store(0, std::memory_order_relaxed);
  std::signal(SIGINT, on_serve_signal);
  std::signal(SIGTERM, on_serve_signal);
  std::signal(SIGHUP, SIG_IGN);  // rolling restarts are the supervisor's job
  try {
    Daemon daemon(options);
    if (serve_options.prewarm) {
      // Pay the first-touch planning stalls before taking traffic — and
      // before reporting readiness: the supervisor only drains the
      // incumbent once this successor can serve warm.
      const std::size_t built = daemon.prewarm();
      std::fprintf(stderr, "whtd: prewarmed %zu transform(s) from %s\n",
                   built, options.engine.wisdom_file.empty()
                              ? "(no wisdom file)"
                              : options.engine.wisdom_file.c_str());
    }
    if (ready_fd >= 0) {
      write_byte(ready_fd, 'R');
      ::close(ready_fd);
    }
    if (options.standby) {
      // Wait for the go byte: the supervisor sends it after SIGTERMing the
      // incumbent, whose kDraining publication satisfies promote()'s cede
      // condition.  EOF means the handoff was cancelled — bow out quietly.
      if (go_fd < 0 || read_byte(go_fd) != 'G') {
        if (go_fd >= 0) ::close(go_fd);
        std::fprintf(stderr, "whtd: handoff cancelled before takeover\n");
        return 3;
      }
      ::close(go_fd);
      daemon.promote();
      std::fprintf(stderr, "whtd: promoted onto %s (epoch %llu)\n",
                   daemon.shm_name().c_str(),
                   static_cast<unsigned long long>(daemon.epoch()));
    }
    daemon.start();
    write_pid_file(serve_options.pid_file, ::getpid());

    std::fprintf(stderr, "whtd: serving %s (slots=%u arena=%llu doubles)\n",
                 daemon.shm_name().c_str(), options.slots,
                 static_cast<unsigned long long>(options.arena_doubles));
    if (serve_options.once_ready) {
      std::printf("READY\n");
      std::fflush(stdout);
    }

    auto last_stats = std::chrono::steady_clock::now();
    while (g_serve_signal.load(std::memory_order_relaxed) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (serve_options.stats) {
        const auto now = std::chrono::steady_clock::now();
        if (now - last_stats >= std::chrono::seconds(1)) {
          print_stats(daemon);
          last_stats = now;
        }
      }
    }

    const int sig = g_serve_signal.load(std::memory_order_relaxed);
    if (sig == SIGTERM) {
      // The planned-restart path: stop admitting (typed kDraining answers),
      // finish in-flight work, wait for clients to consume their answers,
      // flush wisdom — all inside the drain budget — then exit.  SIGINT
      // below skips straight to stop() for the impatient.
      std::fprintf(stderr, "whtd: SIGTERM, draining (budget %llu ms)\n",
                   static_cast<unsigned long long>(options.drain_ms));
      daemon.drain();
      daemon.wait_drained(options.drain_ms + kDrainGraceMs);
    } else {
      std::fprintf(stderr, "whtd: signal %d, stopping\n", sig);
    }
    daemon.stop();
    print_stats(daemon);
    std::fprintf(stderr, "whtd: engine %s\n",
                 api::to_string(daemon.engine().stats()).c_str());
    remove_pid_file(serve_options.pid_file);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "whtd: %s\n", e.what());
    return 1;
  }
  return 0;
}

namespace {

/// Forks one serving child.  `standby` children get the handoff pipes and
/// bind the staging segment.
pid_t spawn_child(const SupervisorOptions& options, bool standby,
                  int ready_fd, int go_fd) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: single-threaded by construction (the supervisor never starts
  // threads); every thread is born inside serve().  Leave via _exit so a
  // failure cannot unwind into the supervisor's stack twice.
  std::signal(SIGHUP, SIG_DFL);
  int code = 1;
  try {
    DaemonOptions daemon_options = options.daemon;
    daemon_options.standby = standby;
    ServeOptions serve_options = options.child;
    serve_options.pid_file.clear();  // the supervisor owns the pid file
    code = serve(daemon_options, serve_options, ready_fd, go_fd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "whtd: %s\n", e.what());
  }
  ::_exit(code);
}

/// Waits for the successor's readiness byte, watching for its early death.
bool await_ready(int ready_fd, pid_t successor, std::uint64_t wait_ms) {
  const std::uint64_t deadline = monotonic_ns() + wait_ms * 1000000ULL;
  for (;;) {
    struct pollfd pfd {};
    pfd.fd = ready_fd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, 50);
    if (rc > 0) return read_byte(ready_fd) == 'R';
    int status = 0;
    if (::waitpid(successor, &status, WNOHANG) == successor) {
      std::fprintf(stderr,
                   "whtd[supervisor]: successor died before readiness\n");
      return false;
    }
    if (monotonic_ns() >= deadline) return false;
  }
}

/// SIGTERM, wait out the drain grace, SIGKILL if it overstays.  Returns
/// the child's exit status (0 for the SIGKILL fallback).
int stop_child(pid_t child, std::uint64_t grace_ms) {
  ::kill(child, SIGTERM);
  const std::uint64_t deadline = monotonic_ns() + grace_ms * 1000000ULL;
  int status = 0;
  while (monotonic_ns() < deadline) {
    if (::waitpid(child, &status, WNOHANG) == child) {
      return WIFEXITED(status) ? WEXITSTATUS(status) : 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::kill(child, SIGKILL);
  ::waitpid(child, &status, 0);
  return 0;
}

}  // namespace

int run_supervisor(const SupervisorOptions& options) {
  g_super_term.store(0, std::memory_order_relaxed);
  g_super_hup.store(0, std::memory_order_relaxed);
  std::signal(SIGINT, on_super_term);
  std::signal(SIGTERM, on_super_term);
  std::signal(SIGHUP, on_super_hup);

  const std::uint64_t grace_ms = options.daemon.drain_ms + kDrainGraceMs;
  std::int64_t restarts = 0;
  pid_t child = spawn_child(options, /*standby=*/false, -1, -1);
  if (child < 0) {
    std::perror("whtd: fork");
    return 1;
  }
  std::fprintf(stderr, "whtd[supervisor]: daemon pid %d\n",
               static_cast<int>(child));
  write_pid_file(options.pid_file, child);
  std::uint64_t spawn_ns = monotonic_ns();

  for (;;) {
    if (g_super_term.load(std::memory_order_relaxed) != 0) {
      // Shutdown: the child gets the SIGTERM (graceful drain) and the
      // drain grace before the SIGKILL insurance.
      const int code = stop_child(child, grace_ms);
      remove_pid_file(options.pid_file);
      return code;
    }

    if (g_super_hup.exchange(0, std::memory_order_relaxed) != 0) {
      // Rolling restart: successor BEFORE incumbent teardown.
      std::fprintf(stderr, "whtd[supervisor]: SIGHUP, rolling restart\n");
      int ready_pipe[2] = {-1, -1};
      int go_pipe[2] = {-1, -1};
      if (::pipe(ready_pipe) != 0 || ::pipe(go_pipe) != 0) {
        std::perror("whtd: pipe");
        if (ready_pipe[0] >= 0) {
          ::close(ready_pipe[0]);
          ::close(ready_pipe[1]);
        }
        continue;  // incumbent keeps serving
      }
      const pid_t next =
          spawn_child(options, /*standby=*/true, ready_pipe[1], go_pipe[0]);
      ::close(ready_pipe[1]);
      ::close(go_pipe[0]);
      if (next < 0) {
        std::perror("whtd: fork");
        ::close(ready_pipe[0]);
        ::close(go_pipe[1]);
        continue;
      }
      if (!await_ready(ready_pipe[0], next, options.handoff_ready_ms)) {
        // Not warm in time (or dead): abandon the handoff, keep the
        // incumbent.  Closing the go pipe tells a live successor to leave.
        std::fprintf(stderr,
                     "whtd[supervisor]: handoff aborted, keeping pid %d\n",
                     static_cast<int>(child));
        ::close(go_pipe[1]);
        ::close(ready_pipe[0]);
        ::kill(next, SIGKILL);
        ::waitpid(next, nullptr, 0);
        continue;
      }
      ::close(ready_pipe[0]);
      // Drain the incumbent FIRST: its kDraining publication both fast-
      // tracks client re-handshakes and satisfies the successor's cede
      // condition.  Then the go byte: the successor promotes onto the
      // canonical endpoint and serves while the predecessor finishes its
      // in-flight work on the old segment.
      ::kill(child, SIGTERM);
      write_byte(go_pipe[1], 'G');
      ::close(go_pipe[1]);
      write_pid_file(options.pid_file, next);
      const std::uint64_t reap_deadline =
          monotonic_ns() + grace_ms * 1000000ULL;
      int status = 0;
      bool reaped = false;
      while (monotonic_ns() < reap_deadline) {
        if (::waitpid(child, &status, WNOHANG) == child) {
          reaped = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      if (!reaped) {
        std::fprintf(stderr,
                     "whtd[supervisor]: predecessor %d overstayed its "
                     "drain, killing\n",
                     static_cast<int>(child));
        ::kill(child, SIGKILL);
        ::waitpid(child, &status, 0);
      }
      child = next;
      spawn_ns = monotonic_ns();
      std::fprintf(stderr, "whtd[supervisor]: handoff complete, serving "
                           "pid %d\n",
                   static_cast<int>(child));
      continue;
    }

    int wait_status = 0;
    bool respawn = false;
    const pid_t done = ::waitpid(child, &wait_status, WNOHANG);
    if (done == child) {
      if (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0) {
        remove_pid_file(options.pid_file);
        return 0;  // clean voluntary exit: nothing to supervise
      }
      std::fprintf(stderr,
                   "whtd[supervisor]: daemon died (%s %d), restarting\n",
                   WIFSIGNALED(wait_status) ? "signal" : "status",
                   WIFSIGNALED(wait_status) ? WTERMSIG(wait_status)
                                            : WEXITSTATUS(wait_status));
      respawn = true;
    } else {
      // Wedge detection: a live child whose heartbeat went stale is as
      // gone as a dead one — replace it.  The boot grace period covers
      // segment creation + Engine construction + first loop entry.
      const std::int64_t age = heartbeat_age_ms(options.daemon.endpoint);
      const std::uint64_t up_ms = (monotonic_ns() - spawn_ns) / 1000000ULL;
      const bool booted = age >= 0;
      const bool wedged =
          (booted && age > options.wedge_ms) ||
          (!booted &&
           up_ms > static_cast<std::uint64_t>(options.wedge_ms) + 10000);
      if (wedged) {
        std::fprintf(stderr,
                     "whtd[supervisor]: daemon wedged (heartbeat %lld ms "
                     "stale), killing pid %d\n",
                     static_cast<long long>(age), static_cast<int>(child));
        ::kill(child, SIGKILL);
        ::waitpid(child, &wait_status, 0);
        respawn = true;
      }
    }
    if (!respawn) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }

    const std::uint64_t up_ms = (monotonic_ns() - spawn_ns) / 1000000ULL;
    if (up_ms >= options.stable_ms && restarts != 0) {
      // The dead child had proved itself: it served out the stability
      // window.  Its crash opens a fresh incident — budget and backoff
      // start over instead of compounding toward give-up forever.
      std::fprintf(stderr,
                   "whtd[supervisor]: %llu ms stable uptime, restart "
                   "budget reset\n",
                   static_cast<unsigned long long>(up_ms));
      restarts = 0;
    }
    restarts += 1;
    if (options.max_restarts > 0 && restarts > options.max_restarts) {
      std::fprintf(stderr, "whtd[supervisor]: %lld restarts exhausted\n",
                   static_cast<long long>(options.max_restarts));
      remove_pid_file(options.pid_file);
      return 1;
    }
    // Capped restart backoff so a daemon that dies on boot cannot spin the
    // supervisor hot.
    const std::int64_t backoff_ms = std::min<std::int64_t>(
        100 << std::min<std::int64_t>(restarts, 5), 2000);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    child = spawn_child(options, /*standby=*/false, -1, -1);
    if (child < 0) {
      std::perror("whtd: fork");
      remove_pid_file(options.pid_file);
      return 1;
    }
    std::fprintf(stderr, "whtd[supervisor]: daemon pid %d (restart %lld)\n",
                 static_cast<int>(child), static_cast<long long>(restarts));
    write_pid_file(options.pid_file, child);
    spawn_ns = monotonic_ns();
  }
}

}  // namespace whtlab::ipc
