// Crash robustness: the failure modes a multi-process serving daemon must
// absorb.  A SIGKILLed client's slot is reclaimed by the pid-liveness
// sweep within a few periods (and becomes connectable again); a daemon
// that goes away — cleanly or by SIGKILL — resolves client calls to a
// typed kDaemonGone instead of a hang.
//
// Fork discipline as in ipc_serve_test.cpp: every fork happens while the
// forking process is single-threaded (children are forked before any
// Daemon/Engine thread starts in the parent); children leave via _exit.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "ipc/client.hpp"
#include "ipc/daemon.hpp"
#include "ipc/protocol.hpp"
#include "ipc/shm.hpp"

namespace whtlab::ipc {
namespace {

std::string unique_endpoint(const char* tag) {
  return std::string("crash-") + tag + "-" + std::to_string(::getpid());
}

DaemonOptions daemon_options(const std::string& endpoint,
                             std::uint32_t slots = 16) {
  DaemonOptions options;
  options.endpoint = endpoint;
  options.slots = slots;
  return options;
}

TEST(IpcCrash, SigkilledClientSlotIsReclaimed) {
  const std::string endpoint = unique_endpoint("client");

  // Child first (we are still single-threaded): it will connect, say so,
  // and then hang on a request stream it never finishes.
  int connected_pipe[2];
  ASSERT_EQ(::pipe(connected_pipe), 0);
  const pid_t victim = ::fork();
  ASSERT_GE(victim, 0);
  if (victim == 0) {
    ::close(connected_pipe[0]);
    if (!Client::wait_for_daemon(endpoint, 10000)) ::_exit(10);
    try {
      auto client = Client::connect({.endpoint = endpoint});
      char byte = 'c';
      (void)!::write(connected_pipe[1], &byte, 1);
      for (;;) ::pause();  // hold the slot until SIGKILL
    } catch (...) {
      ::_exit(11);
    }
  }
  ::close(connected_pipe[1]);

  DaemonOptions options;
  options.endpoint = endpoint;
  options.slots = 1;     // reclamation is observable as re-connectability
  options.sweep_ms = 20;
  Daemon daemon(options);
  daemon.start();

  char byte = 0;
  ASSERT_EQ(::read(connected_pipe[0], &byte, 1), 1) << "victim never connected";
  ::close(connected_pipe[0]);

  // The 1-slot table is now full.
  EXPECT_THROW(Client::connect({.endpoint = endpoint}), Error);

  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // The sweep must notice the dead pid within a few periods.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (daemon.stats().reclaimed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(daemon.stats().reclaimed, 1u) << "slot was not reclaimed";

  // ... and the slot is genuinely free again.
  auto replacement = Client::connect({.endpoint = endpoint});
  double* x = replacement.stage(4);
  for (int i = 0; i < 16; ++i) x[i] = 1.0;
  EXPECT_EQ(replacement.transform(4, x), Status::kOk);
  daemon.stop();
}

TEST(IpcCrash, DaemonStopResolvesToTypedErrorNotHang) {
  const std::string endpoint = unique_endpoint("stop");
  DaemonOptions stop_options = daemon_options(endpoint, 2);
  stop_options.timeout_ms = 2000;
  auto daemon = std::make_unique<Daemon>(stop_options);
  daemon->start();

  auto client = Client::connect({.endpoint = endpoint});
  double* x = client.stage(5);
  for (int i = 0; i < 32; ++i) x[i] = static_cast<double>(i);
  ASSERT_EQ(client.transform(5, x), Status::kOk);

  daemon->stop();  // publishes shutdown, wakes every parked waiter

  // Every later call answers kDaemonGone — quickly and typed, not a hang.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(client.transform(5, x), Status::kDaemonGone);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(2)) << "client call hung";
}

TEST(IpcCrash, SigkilledDaemonResolvesToTypedErrorNotHang) {
  const std::string endpoint = unique_endpoint("kill9");

  // The daemon lives in a forked child this time (forked before it has any
  // threads); the parent is the client that outlives it.
  const pid_t daemon_pid = ::fork();
  ASSERT_GE(daemon_pid, 0);
  if (daemon_pid == 0) {
    try {
      Daemon daemon(daemon_options(endpoint, 2));
      daemon.start();
      for (;;) ::pause();  // until SIGKILL — no clean shutdown ever runs
    } catch (...) {
      ::_exit(11);
    }
  }

  ASSERT_TRUE(Client::wait_for_daemon(endpoint, 10000));
  auto client = Client::connect({.endpoint = endpoint, .timeout_ms = 30000});
  double* x = client.stage(5);
  for (int i = 0; i < 32; ++i) x[i] = static_cast<double>(i);
  ASSERT_EQ(client.transform(5, x), Status::kOk);

  ASSERT_EQ(::kill(daemon_pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(daemon_pid, &status, 0), daemon_pid);

  // No shutdown flag was ever published — the client's liveness probe on
  // the recorded daemon pid is what must detect this, well before the
  // 30 s wait deadline.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(client.transform(5, x), Status::kDaemonGone);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(10)) << "daemon death not detected";

  Shm::unlink(shm_name_for(endpoint));  // the corpse's segment ...
  Shm::unlink(stats_shm_name_for(endpoint));  // ... and its stats page
}

TEST(IpcCrash, DestructorDrainIsBounded) {
  const std::string endpoint = unique_endpoint("drain");

  // The daemon lives in a forked child so it can be SIGSTOPped: alive by
  // the pid probe (no kDaemonGone short-circuit) but serving nothing —
  // the worst case for a destructor that waits on in-flight requests.
  const pid_t daemon_pid = ::fork();
  ASSERT_GE(daemon_pid, 0);
  if (daemon_pid == 0) {
    try {
      Daemon daemon(daemon_options(endpoint, 2));
      daemon.start();
      for (;;) ::pause();
    } catch (...) {
      ::_exit(11);
    }
  }
  ASSERT_TRUE(Client::wait_for_daemon(endpoint, 10000));

  Client::Options options;
  options.endpoint = endpoint;
  options.timeout_ms = 30000;  // the per-wait deadline must NOT govern this
  options.drain_ms = 200;
  auto client = std::make_unique<Client>(Client::connect(options));
  double* x = client->stage(5);
  for (int i = 0; i < 32; ++i) x[i] = static_cast<double>(i);

  ASSERT_EQ(::kill(daemon_pid, SIGSTOP), 0);
  Client::Ticket ticket;
  ASSERT_EQ(client->submit(5, x, 1, ticket), Status::kOk);
  ASSERT_EQ(client->inflight(), 1u);

  // ~Client: the drain waits at most drain_ms for the parked daemon, then
  // abandons the request and frees the slot.
  const auto t0 = std::chrono::steady_clock::now();
  client.reset();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(2))
      << "destructor ignored the drain_ms bound";
  ASSERT_EQ(::kill(daemon_pid, SIGCONT), 0);

  ASSERT_EQ(::kill(daemon_pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(daemon_pid, &status, 0), daemon_pid);
  Shm::unlink(shm_name_for(endpoint));
  Shm::unlink(stats_shm_name_for(endpoint));
}

TEST(IpcCrash, StaleSegmentFromDeadDaemonIsTakenOver) {
  const std::string endpoint = unique_endpoint("stale");

  // Manufacture a crashed predecessor: a forked daemon that SIGKILLs
  // itself leaves a fully-initialized segment with a dead recorded pid.
  const pid_t predecessor = ::fork();
  ASSERT_GE(predecessor, 0);
  if (predecessor == 0) {
    try {
      Daemon daemon(daemon_options(endpoint));
      daemon.start();
      ::kill(::getpid(), SIGKILL);
    } catch (...) {
    }
    ::_exit(11);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(predecessor, &status, 0), predecessor);
  ASSERT_TRUE(WIFSIGNALED(status));

  // A successor must take the dead daemon's endpoint over and serve
  // normally.
  Daemon daemon(daemon_options(endpoint));
  daemon.start();
  auto client = Client::connect({.endpoint = endpoint});
  double* x = client.stage(4);
  for (int i = 0; i < 16; ++i) x[i] = 1.0;
  EXPECT_EQ(client.transform(4, x), Status::kOk);
  daemon.stop();
}

}  // namespace
}  // namespace whtlab::ipc
