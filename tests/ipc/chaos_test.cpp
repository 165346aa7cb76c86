// Chaos harness: the PR-7 fault-tolerance contract, end to end.  Several
// forked verifying clients run bounded request streams in --reconnect mode
// while the parent SIGKILLs and restarts the daemon under them, with fault
// injection armed inside each daemon (ring-publish failures, backend exec
// faults feeding the Engine circuit breaker).  The contract under all of
// that chaos:
//
//   * every request that completes kOk is bit-exact vs an in-process plan,
//   * every request that does not complete resolves to a TYPED status
//     within its deadline — never a hang, never silent corruption,
//   * the endpoint segment is reusable by each successor daemon and gone
//     after the final cleanup (no leaked /dev/shm state).
//
// Fork discipline as everywhere in tests/ipc: all forks happen while the
// forking process is single-threaded (client children are forked before
// any Daemon exists in the parent; each Daemon lives in its own forked
// child); children leave via _exit.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/planner.hpp"
#include "api/transform.hpp"
#include "ipc/client.hpp"
#include "ipc/daemon.hpp"
#include "ipc/shm.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace whtlab::ipc {
namespace {

constexpr int kClients = 3;
constexpr int kKillRounds = 3;
constexpr int kRequests = 18;
constexpr int kMinOk = 3;
constexpr int kLogN = 6;

std::string unique_endpoint() {
  return "chaos-" + std::to_string(::getpid());
}

/// Client child body: a bounded verifying request stream that must survive
/// daemon crashes.  Exit codes: 0 ok, 10 no daemon ever, 12 too few
/// completions, 13 unexpected exception, 42 completed-but-corrupt (fatal:
/// a wrong answer is the one thing chaos must never produce).
int run_chaos_client(const std::string& endpoint, std::uint64_t seed) {
  if (!Client::wait_for_daemon(endpoint, 15000)) return 10;
  Client::Options options;
  options.endpoint = endpoint;
  options.timeout_ms = 4000;
  options.reconnect = true;
  options.reconnect_window_ms = 8000;
  options.backoff_initial_ms = 2;
  options.backoff_max_ms = 100;
  try {
    auto client = Client::connect(options);
    const api::Transform reference =
        api::Planner().backend("generated").plan(kLogN);
    const std::size_t doubles = std::size_t{1} << kLogN;
    int ok = 0;
    for (int r = 0; r < kRequests; ++r) {
      // Pace the stream so it spans every kill/restart round the parent
      // runs — an unpaced client finishes before the first SIGKILL lands
      // and the harness tests nothing.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      double* x = nullptr;
      try {
        x = client.stage(kLogN);
      } catch (const Error&) {
        continue;  // typed staging failure mid-outage: an answer, not a bug
      }
      const auto input =
          util::random_vector(doubles, seed * 1000 + static_cast<unsigned>(r));
      std::memcpy(x, input.data(), doubles * sizeof(double));
      if (client.transform(kLogN, x) != Status::kOk) continue;
      std::vector<double> expected = input;
      reference.execute(expected.data());
      if (std::memcmp(x, expected.data(), doubles * sizeof(double)) != 0) {
        return 42;
      }
      ++ok;
    }
    return ok >= kMinOk ? 0 : 12;
  } catch (const std::exception&) {
    return 13;
  }
}

/// Daemon child body: serve the endpoint with faults armed until killed.
/// The exec faults feed the Engine breaker (fallback keeps answers
/// bit-exact); the publish fault exercises the daemon's respond retry.
void run_chaos_daemon(const std::string& endpoint, int round) {
  try {
    const std::string seed = std::to_string(101 + round);
    util::fault::arm("ipc.ring.publish=prob:0.05:" + seed +
                     ",engine.exec.simd=prob:0.2:" + seed +
                     ",engine.exec.fused=prob:0.2:" + seed +
                     ",ipc.futex.wait=prob:0.02:" + seed);
    DaemonOptions options;
    options.endpoint = endpoint;
    options.slots = 8;
    options.sweep_ms = 20;
    options.engine.quarantine_strikes = 2;
    options.engine.probation_ms = 200;
    options.engine.verify_finite = true;
    Daemon daemon(options);
    daemon.start();
    for (;;) ::pause();  // until SIGKILL — no clean shutdown ever runs
  } catch (...) {
    ::_exit(11);
  }
}

TEST(IpcChaos, VerifyingClientsSurviveDaemonKillRestartCycles) {
  const std::string endpoint = unique_endpoint();

  // Clients first, while we are single-threaded.  They park in
  // wait_for_daemon until the first daemon comes up.
  std::vector<pid_t> clients;
  for (int c = 0; c < kClients; ++c) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::_exit(run_chaos_client(endpoint, static_cast<std::uint64_t>(c + 1)));
    }
    clients.push_back(pid);
  }

  // Kill/restart cycles: each round forks a fresh daemon (which takes the
  // stale segment over), lets it serve briefly, then SIGKILLs it mid-flight.
  for (int round = 0; round < kKillRounds; ++round) {
    const pid_t daemon_pid = ::fork();
    ASSERT_GE(daemon_pid, 0);
    if (daemon_pid == 0) run_chaos_daemon(endpoint, round);

    ASSERT_TRUE(Client::wait_for_daemon(endpoint, 15000))
        << "daemon of round " << round << " never came up";
    std::this_thread::sleep_for(std::chrono::milliseconds(400));

    ASSERT_EQ(::kill(daemon_pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(daemon_pid, &status, 0), daemon_pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  }

  // Final daemon stays up so every client can finish its stream.
  const pid_t final_daemon = ::fork();
  ASSERT_GE(final_daemon, 0);
  if (final_daemon == 0) run_chaos_daemon(endpoint, kKillRounds);
  ASSERT_TRUE(Client::wait_for_daemon(endpoint, 15000));

  for (std::size_t c = 0; c < clients.size(); ++c) {
    int status = 0;
    ASSERT_EQ(::waitpid(clients[c], &status, 0), clients[c]);
    ASSERT_TRUE(WIFEXITED(status)) << "client " << c << " died on a signal";
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "client " << c
        << " (10=no daemon, 12=too few completions, 13=exception, "
           "42=CORRUPTION)";
  }

  ASSERT_EQ(::kill(final_daemon, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(final_daemon, &status, 0), final_daemon);
  Shm::unlink(shm_name_for(endpoint));  // the last corpse's segment ...
  Shm::unlink(stats_shm_name_for(endpoint));  // ... and its stats page
}

/// Daemon child body for the crash-during-replay test: no fault injection
/// (the chaos here is all process death), fast sweep so reclamation latency
/// is visible inside the test budget.
void run_replay_daemon(const std::string& endpoint) {
  try {
    DaemonOptions options;
    options.endpoint = endpoint;
    options.slots = 8;
    options.sweep_ms = 25;
    Daemon daemon(options);
    daemon.start();
    for (;;) ::pause();  // until SIGKILL
  } catch (...) {
    ::_exit(11);
  }
}

/// Polls the endpoint's current segment until `pid` holds an active slot
/// there; false after `timeout_ms`.
bool wait_for_tenant(const std::string& endpoint, pid_t pid, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; ++waited) {
    try {
      const Shm shm = Shm::open_readonly(shm_name_for(endpoint));
      const auto* header = static_cast<const ControlHeader*>(shm.data());
      if (shm.size() >= sizeof(ControlHeader) && header->magic == kMagic) {
        const Layout layout{header->slot_count, header->arena_doubles};
        for (std::uint32_t i = 0;
             i < layout.slot_count && shm.size() >= layout.total_bytes();
             ++i) {
          const SlotShared* slot = layout.slot(shm.data(), i);
          if (slot->state.load() == kActive &&
              slot->pid.load() == static_cast<std::uint32_t>(pid)) {
            return true;
          }
        }
      }
    } catch (const std::exception&) {
      // Mid-takeover: the name is briefly absent.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(IpcChaos, ClientKilledDuringReplayIsSweptAndNeighboursStayExact) {
  // The nastiest client death: not idle, but mid-recovery — a --reconnect
  // client that lost its daemon, re-handshook against the successor, and is
  // replaying its snapshot when SIGKILL lands.  Its half-replayed slot is a
  // corpse with queued requests; the successor daemon's liveness sweep must
  // reclaim it (reclaimed counter), the slot must be reusable, and the
  // surviving neighbour's stream must stay bit-exact throughout.
  const std::string endpoint = "replay-" + std::to_string(::getpid());

  // Both clients forked first, single-threaded, parking in wait_for_daemon.
  // The 100 ms pacing of run_chaos_client means requests regularly straddle
  // the daemon swap and get replayed against the successor.
  const pid_t victim = ::fork();
  ASSERT_GE(victim, 0);
  if (victim == 0) ::_exit(run_chaos_client(endpoint, 31));
  const pid_t neighbour = ::fork();
  ASSERT_GE(neighbour, 0);
  if (neighbour == 0) ::_exit(run_chaos_client(endpoint, 32));

  // Daemon 1: let both clients connect and make progress.
  const pid_t daemon1 = ::fork();
  ASSERT_GE(daemon1, 0);
  if (daemon1 == 0) run_replay_daemon(endpoint);
  ASSERT_TRUE(Client::wait_for_daemon(endpoint, 15000));
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  // Kill it mid-flight: both clients fall into their reconnect windows.
  ASSERT_EQ(::kill(daemon1, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(daemon1, &status, 0), daemon1);

  // Daemon 2 takes the stale segment over; the victim dies as soon as it
  // has re-handshook against it, while it replays.  It paces requests
  // 100 ms apart and re-handshakes lazily, so a fixed delay could kill it
  // before it holds a slot here, leaving no corpse for the sweep.
  const pid_t daemon2 = ::fork();
  ASSERT_GE(daemon2, 0);
  if (daemon2 == 0) run_replay_daemon(endpoint);
  ASSERT_TRUE(Client::wait_for_daemon(endpoint, 15000));
  ASSERT_TRUE(wait_for_tenant(endpoint, victim, 10000))
      << "the victim never re-handshook against daemon 2";
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  ASSERT_EQ(::waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // The neighbour must finish its verified stream despite all of it.
  ASSERT_EQ(::waitpid(neighbour, &status, 0), neighbour);
  ASSERT_TRUE(WIFEXITED(status)) << "neighbour died on a signal";
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "(10=no daemon, 12=too few completions, 13=exception, "
         "42=CORRUPTION)";

  // Sweep latency: well within a few sweep_ms periods the victim's corpse
  // is reclaimed and its slot serves a fresh tenant.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  {
    auto probe = Client::connect({.endpoint = endpoint});
    EXPECT_GT(probe.stats().reclaimed, 0u)
        << "the mid-replay corpse was never swept";
    double* x = probe.stage(kLogN);
    const auto input = util::random_vector(std::size_t{1} << kLogN, 777);
    std::memcpy(x, input.data(), input.size() * sizeof(double));
    ASSERT_EQ(probe.transform(kLogN, x), Status::kOk);
    std::vector<double> expected = input;
    api::Planner().backend("generated").plan(kLogN).execute(expected.data());
    EXPECT_EQ(
        std::memcmp(x, expected.data(), input.size() * sizeof(double)), 0);
  }

  ASSERT_EQ(::kill(daemon2, SIGKILL), 0);
  ASSERT_EQ(::waitpid(daemon2, &status, 0), daemon2);
  Shm::unlink(shm_name_for(endpoint));
  Shm::unlink(stats_shm_name_for(endpoint));
}

}  // namespace
}  // namespace whtlab::ipc
