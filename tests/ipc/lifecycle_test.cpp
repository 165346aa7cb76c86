// Lifecycle harness: the PR-9 zero-downtime contract, end to end.
//
//   * Graceful drain: a draining daemon finishes in-flight work, answers
//     new submissions with the typed kDraining (retry hint attached),
//     waits for clients to consume their responses, flushes wisdom, then
//     stops — and a wedged consumer aborts the drain at --drain-ms with a
//     typed counter instead of hanging it.
//   * Warm-standby handoff: a standby Daemon prewarms on a staging
//     segment, promotes onto the canonical endpoint once the (live,
//     draining) predecessor cedes, and a reconnect-enabled client crosses
//     the swap with zero failed requests.
//   * Rolling restarts: run_supervisor() executes SIGHUP handoff cycles
//     under verifying reconnect-client load; every request of every
//     stream completes kOk and bit-exact, every successor serves warm
//     (prewarmed > 0 published before takeover), and no /dev/shm state
//     leaks — canonical or staging.
//
// Fork discipline as everywhere in tests/ipc: all forks happen while the
// forking process is single-threaded (client children and the supervisor
// child are forked before any Daemon exists in the parent); children
// leave via _exit.
#include <gtest/gtest.h>

#include <csignal>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/planner.hpp"
#include "api/transform.hpp"
#include "ipc/client.hpp"
#include "ipc/daemon.hpp"
#include "ipc/shm.hpp"
#include "ipc/supervisor.hpp"
#include "util/rng.hpp"

namespace whtlab::ipc {
namespace {

constexpr int kLogN = 6;
constexpr int kRollClients = 3;
constexpr int kHandoffCycles = 3;
constexpr int kRollRequests = 80;

std::string unique_endpoint(const char* tag) {
  return std::string(tag) + "-" + std::to_string(::getpid());
}

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Read-only snapshot of the canonical segment's lifecycle words, taken by
/// name so it tracks the *current* owner across handoffs (the parent must
/// re-open per poll: the name swaps segments mid-promotion).  nullopt while
/// the name is missing or mid-publication.
struct EndpointView {
  std::uint64_t epoch = 0;
  std::uint32_t prewarmed = 0;
  Lifecycle lifecycle = Lifecycle::kStopped;
  std::uint32_t pid = 0;
};

std::optional<EndpointView> probe_endpoint(const std::string& endpoint) {
  try {
    const Shm probe = Shm::open_readonly(shm_name_for(endpoint));
    if (probe.size() < sizeof(ControlHeader)) return std::nullopt;
    const auto* header = static_cast<const ControlHeader*>(probe.data());
    if (header->magic != kMagic) return std::nullopt;
    EndpointView view;
    view.epoch = header->epoch.load(std::memory_order_acquire);
    view.prewarmed = header->prewarmed.load(std::memory_order_acquire);
    view.lifecycle = static_cast<Lifecycle>(
        header->lifecycle.load(std::memory_order_acquire));
    view.pid = header->daemon_pid.load(std::memory_order_acquire);
    return view;
  } catch (const std::exception&) {
    return std::nullopt;  // name unlinked (mid-swap) or never created
  }
}

// ---------------------------------------------------------------------------
// Graceful drain: in-flight completes, new submissions answer kDraining.
// ---------------------------------------------------------------------------

TEST(IpcLifecycle, DrainCompletesInFlightAndRefusesNewSubmissions) {
  const std::string endpoint = unique_endpoint("drain");
  DaemonOptions options;
  options.endpoint = endpoint;
  options.slots = 4;
  options.sweep_ms = 20;
  options.drain_ms = 4000;
  Daemon daemon(options);
  daemon.start();
  EXPECT_EQ(daemon.lifecycle(), Lifecycle::kServing);
  EXPECT_EQ(daemon.epoch(), 1u);

  Client::Options copts;
  copts.endpoint = endpoint;
  copts.timeout_ms = 4000;
  auto client = Client::connect(copts);
  const std::size_t doubles = std::size_t{1} << kLogN;
  const api::Transform reference =
      api::Planner().backend("generated").plan(kLogN);

  // Request 1: submitted, executed, answered — but NOT yet consumed.  The
  // unconsumed response ring holds the drain open deterministically.
  double* x1 = client.stage(kLogN);
  const auto input = util::random_vector(doubles, 7);
  std::memcpy(x1, input.data(), doubles * sizeof(double));
  Client::Ticket t1;
  ASSERT_EQ(client.submit(kLogN, x1, 1, t1), Status::kOk);
  const std::uint64_t give_up = now_ms() + 5000;
  while (daemon.stats().vectors < 1 && now_ms() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(daemon.stats().vectors, 1u) << "request never executed";

  daemon.drain(3000);
  EXPECT_EQ(daemon.lifecycle(), Lifecycle::kDraining);
  EXPECT_EQ(client.daemon_lifecycle(), Lifecycle::kDraining);

  // Request 2 arrives mid-drain: refused with the typed kDraining and a
  // retry hint bounded by the remaining drain budget.
  double* x2 = client.stage(kLogN);
  std::memcpy(x2, input.data(), doubles * sizeof(double));
  Client::Ticket t2;
  ASSERT_EQ(client.submit(kLogN, x2, 1, t2), Status::kOk);
  EXPECT_EQ(client.wait(t2), Status::kDraining);
  EXPECT_EQ(client.drain_notices(), 1u);
  EXPECT_GE(client.last_drain_hint_ms(), 0);
  EXPECT_LE(client.last_drain_hint_ms(), 3000);

  // The in-flight answer survives the drain bit-exactly.
  EXPECT_EQ(client.wait(t1), Status::kOk);
  std::vector<double> expected = input;
  reference.execute(expected.data());
  EXPECT_EQ(std::memcmp(x1, expected.data(), doubles * sizeof(double)), 0);

  // Both responses consumed: the drain can now run to completion.
  EXPECT_TRUE(daemon.wait_drained(4000));
  EXPECT_EQ(daemon.lifecycle(), Lifecycle::kStopped);
  const Daemon::Stats stats = daemon.stats();
  EXPECT_EQ(stats.drained, 1u);
  EXPECT_EQ(stats.drain_aborted, 0u);
  EXPECT_GE(stats.drain_refused, 1u);

  daemon.stop();
  EXPECT_FALSE(Shm::exists(shm_name_for(endpoint)));  // no /dev/shm litter
}

/// Parked-client child: submits one request and then never consumes its
/// response ring (the SIGSTOPped-consumer shape) — the drain must abort at
/// its deadline with a typed counter, not hang on this client.  Exit codes:
/// 10 no daemon, 12 submit refused, 13 exception; never returns otherwise.
int run_parked_client(const std::string& endpoint) {
  if (!Client::wait_for_daemon(endpoint, 15000)) return 10;
  try {
    Client::Options options;
    options.endpoint = endpoint;
    auto client = Client::connect(options);
    double* x = client.stage(kLogN);
    const std::size_t doubles = std::size_t{1} << kLogN;
    const auto input = util::random_vector(doubles, 11);
    std::memcpy(x, input.data(), doubles * sizeof(double));
    Client::Ticket ticket;
    if (client.submit(kLogN, x, 1, ticket) != Status::kOk) return 12;
    for (;;) ::pause();  // wedged: the answer is never consumed
  } catch (const std::exception&) {
    return 13;
  }
}

TEST(IpcLifecycle, DrainDeadlineAbortsOnWedgedConsumerInsteadOfHanging) {
  const std::string endpoint = unique_endpoint("wedge");

  // Fork the parked client first, while single-threaded.
  const pid_t parked = ::fork();
  ASSERT_GE(parked, 0);
  if (parked == 0) ::_exit(run_parked_client(endpoint));

  DaemonOptions options;
  options.endpoint = endpoint;
  options.slots = 4;
  options.sweep_ms = 20;
  Daemon daemon(options);
  daemon.start();

  // Wait until the parked client's request executed — its response now
  // sits unconsumed in a ring owned by a live pid.
  const std::uint64_t give_up = now_ms() + 10000;
  while (daemon.stats().vectors < 1 && now_ms() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(daemon.stats().vectors, 1u) << "parked client never submitted";

  const std::uint64_t t0 = now_ms();
  daemon.drain(300);
  EXPECT_TRUE(daemon.wait_drained(5000)) << "drain hung on a wedged consumer";
  const std::uint64_t elapsed = now_ms() - t0;
  EXPECT_GE(elapsed, 300u) << "drain gave up before its deadline";
  EXPECT_LT(elapsed, 5000u);
  const Daemon::Stats stats = daemon.stats();
  EXPECT_EQ(stats.drain_aborted, 1u);
  EXPECT_EQ(stats.drained, 0u);

  ::kill(parked, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(parked, &status, 0), parked);
  daemon.stop();
  EXPECT_FALSE(Shm::exists(shm_name_for(endpoint)));
}

// ---------------------------------------------------------------------------
// Warm-standby promotion, in-process: the draining predecessor cedes, the
// epoch chains, and a resilient client crosses the swap.
// ---------------------------------------------------------------------------

TEST(IpcLifecycle, StandbyPromotesOverDrainingPredecessorAndClientFollows) {
  const std::string endpoint = unique_endpoint("promote");
  const std::string canonical = shm_name_for(endpoint);
  const std::string staging = shm_name_for(endpoint + ".next");

  DaemonOptions aopts;
  aopts.endpoint = endpoint;
  aopts.slots = 4;
  aopts.sweep_ms = 20;
  Daemon incumbent(aopts);
  incumbent.start();
  EXPECT_EQ(incumbent.epoch(), 1u);

  Client::Options copts;
  copts.endpoint = endpoint;
  copts.timeout_ms = 4000;
  copts.reconnect = true;
  copts.reconnect_window_ms = 8000;
  copts.backoff_initial_ms = 2;
  copts.backoff_max_ms = 100;
  auto client = Client::connect(copts);
  const std::size_t doubles = std::size_t{1} << kLogN;
  const api::Transform reference =
      api::Planner().backend("generated").plan(kLogN);

  const auto before = util::random_vector(doubles, 21);
  double* x = client.stage(kLogN);
  std::memcpy(x, before.data(), doubles * sizeof(double));
  ASSERT_EQ(client.transform(kLogN, x), Status::kOk);

  // Successor boots against the staging name while the incumbent still
  // owns the canonical endpoint (epoch 0 marks a staging segment).
  DaemonOptions bopts = aopts;
  bopts.standby = true;
  Daemon successor(bopts);
  EXPECT_TRUE(Shm::exists(staging));
  EXPECT_EQ(successor.epoch(), 0u);
  EXPECT_EQ(successor.lifecycle(), Lifecycle::kWarming);

  // Drain the incumbent (no consumers wedged: completes immediately), then
  // promote — the live-but-draining predecessor cedes the canonical name.
  incumbent.drain(2000);
  ASSERT_TRUE(incumbent.wait_drained(4000));
  successor.promote(5000);
  successor.start();
  EXPECT_EQ(successor.epoch(), 2u);  // chained, not restarted
  EXPECT_EQ(successor.lifecycle(), Lifecycle::kServing);
  EXPECT_FALSE(Shm::exists(staging));  // staging name freed by promote

  // The predecessor's stop must NOT tear down the successor's endpoint.
  incumbent.stop();
  EXPECT_TRUE(Shm::exists(canonical));

  // The resilient client re-handshakes onto the successor and its next
  // verified request completes — zero failed requests across the handoff.
  const auto after = util::random_vector(doubles, 22);
  double* y = client.stage(kLogN);
  std::memcpy(y, after.data(), doubles * sizeof(double));
  ASSERT_EQ(client.transform(kLogN, y), Status::kOk);
  std::vector<double> expected = after;
  reference.execute(expected.data());
  EXPECT_EQ(std::memcmp(y, expected.data(), doubles * sizeof(double)), 0);
  EXPECT_EQ(client.reconnects(), 1u);
  EXPECT_EQ(client.daemon_lifecycle(), Lifecycle::kServing);

  successor.stop();
  EXPECT_FALSE(Shm::exists(canonical));
  EXPECT_FALSE(Shm::exists(staging));
}

// ---------------------------------------------------------------------------
// The acceptance gate: supervised SIGHUP rolling restarts under verifying
// reconnect-client load.
// ---------------------------------------------------------------------------

/// Rolling-restart client child: a paced verified stream in which EVERY
/// request must complete kOk and bit-exact — a planned restart is invisible,
/// so unlike the crash-chaos harness there is no "typed loss" allowance.
/// Exit codes: 0 ok, 10 no daemon, 13 exception, 20 a request resolved to a
/// non-kOk status (kDaemonGone included), 42 completed-but-corrupt.
int run_rolling_client(const std::string& endpoint, std::uint64_t seed) {
  if (!Client::wait_for_daemon(endpoint, 20000)) return 10;
  Client::Options options;
  options.endpoint = endpoint;
  options.timeout_ms = 5000;
  options.reconnect = true;
  options.reconnect_window_ms = 10000;
  options.backoff_initial_ms = 2;
  options.backoff_max_ms = 100;
  try {
    auto client = Client::connect(options);
    const api::Transform reference =
        api::Planner().backend("generated").plan(kLogN);
    const std::size_t doubles = std::size_t{1} << kLogN;
    for (int r = 0; r < kRollRequests; ++r) {
      // Paced so the stream spans every SIGHUP handoff the parent runs.
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      double* x = client.stage(kLogN);
      const auto input =
          util::random_vector(doubles, seed * 1000 + static_cast<unsigned>(r));
      std::memcpy(x, input.data(), doubles * sizeof(double));
      if (client.transform(kLogN, x) != Status::kOk) return 20;
      std::vector<double> expected = input;
      reference.execute(expected.data());
      if (std::memcmp(x, expected.data(), doubles * sizeof(double)) != 0) {
        return 42;
      }
    }
    return 0;
  } catch (const std::exception&) {
    return 13;
  }
}

/// Scoped reaper: gtest ASSERTs return early, and a leaked supervisor
/// keeps serving the endpoint into any later run that reuses the name.
/// On scope exit, any child still alive gets `sig`, a grace window, then
/// SIGKILL.  Children reaped by the test body itself are skipped.
class ChildReaper {
 public:
  explicit ChildReaper(int sig) : sig_(sig) {}
  void track(pid_t pid) { pids_.push_back(pid); }
  ~ChildReaper() {
    for (const pid_t pid : pids_) {
      if (::waitpid(pid, nullptr, WNOHANG) != 0) continue;  // gone/reaped
      ::kill(pid, sig_);
      const std::uint64_t give_up = now_ms() + 8000;
      while (now_ms() < give_up) {
        if (::waitpid(pid, nullptr, WNOHANG) != 0) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      if (::waitpid(pid, nullptr, WNOHANG) == 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
  }

 private:
  int sig_;
  std::vector<pid_t> pids_;
};

/// Supervisor child body: the exact `whtd --supervise` code path, via the
/// library entry point.
int run_lifecycle_supervisor(const std::string& endpoint,
                             const std::string& wisdom) {
  SupervisorOptions options;
  options.daemon.endpoint = endpoint;
  options.daemon.slots = 8;
  options.daemon.sweep_ms = 20;
  options.daemon.drain_ms = 3000;
  options.daemon.engine.wisdom_file = wisdom;
  options.child.prewarm = true;
  options.wedge_ms = 20000;
  options.handoff_ready_ms = 20000;
  return run_supervisor(options);
}

TEST(IpcLifecycle, SupervisedRollingRestartsServeWarmWithZeroFailedRequests) {
  const std::string endpoint = unique_endpoint("roll");
  const std::string wisdom =
      "/tmp/whtlab-lifecycle-" + std::to_string(::getpid()) + ".wisdom";
  ::unlink(wisdom.c_str());

  // Wisdom setup in a forked child (planning spawns no threads we would
  // carry across later forks, but the discipline is uniform: heavy work in
  // children, the test parent stays single-threaded until all forks ran).
  {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      try {
        api::Planner().wisdom_file(wisdom).backend("generated").plan(kLogN);
      } catch (const std::exception&) {
        ::_exit(1);
      }
      ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "wisdom setup failed";
  }

  // Verifying clients first; they park in wait_for_daemon.  The reapers
  // cover ASSERT early-returns: clients die hard, the supervisor gets
  // SIGTERM (it stops its serving child before exiting).
  ChildReaper client_reaper(SIGKILL);
  ChildReaper supervisor_reaper(SIGTERM);
  std::vector<pid_t> clients;
  for (int c = 0; c < kRollClients; ++c) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::_exit(run_rolling_client(endpoint, static_cast<std::uint64_t>(c + 1)));
    }
    clients.push_back(pid);
    client_reaper.track(pid);
  }

  // The supervisor, also forked while single-threaded.
  const pid_t supervisor = ::fork();
  ASSERT_GE(supervisor, 0);
  if (supervisor == 0) ::_exit(run_lifecycle_supervisor(endpoint, wisdom));
  supervisor_reaper.track(supervisor);

  // First generation up: epoch 1, serving, warm (prewarmed from wisdom).
  ASSERT_TRUE(Client::wait_for_daemon(endpoint, 30000));
  std::optional<EndpointView> view;
  std::uint64_t deadline = now_ms() + 10000;
  while (now_ms() < deadline) {
    view = probe_endpoint(endpoint);
    if (view && view->lifecycle == Lifecycle::kServing) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(view->lifecycle, Lifecycle::kServing);
  EXPECT_EQ(view->epoch, 1u);
  EXPECT_GT(view->prewarmed, 0u) << "first generation did not serve warm";

  // SIGHUP handoff cycles.  Each must hand the canonical endpoint to a
  // successor generation (epoch + 1) that is already warm when observed
  // serving — the prewarmed word is stamped before takeover.
  std::uint64_t epoch = view->epoch;
  for (int cycle = 0; cycle < kHandoffCycles; ++cycle) {
    ASSERT_EQ(::kill(supervisor, SIGHUP), 0);
    deadline = now_ms() + 30000;
    bool handed_off = false;
    while (now_ms() < deadline) {
      view = probe_endpoint(endpoint);
      if (view && view->epoch == epoch + 1 &&
          view->lifecycle == Lifecycle::kServing && view->prewarmed > 0) {
        handed_off = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(handed_off) << "handoff cycle " << cycle << " never completed";
    epoch = view->epoch;
    // Dwell serving between cycles so client streams make progress on
    // every generation.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  }

  // Every client stream must have crossed the restarts untouched: every
  // request kOk, every answer bit-exact.
  for (const pid_t pid : clients) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "client died by signal";
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "a planned restart cost a client a request";
  }

  // Clean shutdown: SIGTERM drains the final generation and the supervisor
  // exits 0 with no /dev/shm litter, canonical or staging.
  ASSERT_EQ(::kill(supervisor, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(supervisor, &status, 0), supervisor);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "supervisor did not exit cleanly";
  EXPECT_FALSE(Shm::exists(shm_name_for(endpoint)));
  EXPECT_FALSE(Shm::exists(shm_name_for(endpoint + ".next")));
  ::unlink(wisdom.c_str());
}

}  // namespace
}  // namespace whtlab::ipc
