// End-to-end whtd protocol: Daemon + Client over a real shm segment.
//
// The headline guarantee is bit-exactness — every vector served through the
// daemon (singles merged per poll round, batches through the arbitrated
// execute_many) must equal the in-process Transform bit for bit, including
// with >= 4 concurrent client *processes* racing each other.  Also here:
// cross-slot merging of same-size singles, admission control (typed
// kServerFull when the slot table is full), the connect-time version/ABI
// gate, option range checks, typed client-side shape errors, and the daemon
// counter line.
//
// Fork discipline: client children are forked BEFORE the Daemon is
// constructed, while this process is still single-threaded; the children
// wait for the daemon to come up.  Children leave through _exit so the
// forked gtest runtime never runs atexit hooks.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/planner.hpp"
#include "ipc/client.hpp"
#include "ipc/daemon.hpp"
#include "ipc/protocol.hpp"
#include "ipc/shm.hpp"
#include "util/rng.hpp"

namespace whtlab::ipc {
namespace {

std::string unique_endpoint(const char* tag) {
  return std::string("test-") + tag + "-" + std::to_string(::getpid());
}

DaemonOptions daemon_options(const std::string& endpoint,
                             std::uint32_t slots = 16) {
  DaemonOptions options;
  options.endpoint = endpoint;
  options.slots = slots;
  return options;
}

/// One client process's workload: `requests` round trips of `count` packed
/// 2^n vectors, each checked bit-exact against the in-process reference.
/// Returns 0 on success (the child's exit code).
int client_workload(const std::string& endpoint, int n, std::size_t count,
                    int requests, std::uint64_t seed) {
  if (!Client::wait_for_daemon(endpoint, 10000)) return 10;
  try {
    auto client = Client::connect({.endpoint = endpoint});
    const auto reference = api::Planner().plan(n);
    const std::size_t doubles = count << n;
    for (int r = 0; r < requests; ++r) {
      double* x = client.stage(n, count);
      const auto input = util::random_vector(
          doubles, seed + static_cast<std::uint64_t>(r));
      std::memcpy(x, input.data(), doubles * sizeof(double));
      if (client.transform(n, x, count) != Status::kOk) return 11;
      std::vector<double> expected = input;
      for (std::size_t v = 0; v < count; ++v) {
        reference.execute(expected.data() + (v << n));
      }
      if (std::memcmp(x, expected.data(), doubles * sizeof(double)) != 0) {
        return 12;  // NOT bit-exact
      }
    }
  } catch (...) {
    return 13;
  }
  return 0;
}

TEST(IpcServe, SingleClientBitExactInProcess) {
  const std::string endpoint = unique_endpoint("serve1");
  Daemon daemon(daemon_options(endpoint, 2));
  daemon.start();

  auto client = Client::connect({.endpoint = endpoint});
  const auto reference = api::Planner().plan(8);
  for (int r = 0; r < 6; ++r) {
    double* x = client.stage(8, 3);
    const auto input = util::random_vector(3 << 8, 42 + r);
    std::memcpy(x, input.data(), input.size() * sizeof(double));
    ASSERT_EQ(client.transform(8, x, 3), Status::kOk);
    std::vector<double> expected = input;
    for (int v = 0; v < 3; ++v) reference.execute(expected.data() + (v << 8));
    EXPECT_EQ(std::memcmp(x, expected.data(), input.size() * sizeof(double)),
              0)
        << "round " << r << " not bit-exact";
  }
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.vectors, 18u);
  EXPECT_EQ(client.credits(), 0u)
      << "credits are off: the advisory word stays at the published 0";
  daemon.stop();
}

TEST(IpcServe, FourForkedClientsStayBitExact) {
  const std::string endpoint = unique_endpoint("serve4");
  constexpr int kClients = 5;

  // Fork first (no threads exist yet), then bring the daemon up.
  std::vector<pid_t> children;
  for (int c = 0; c < kClients; ++c) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Mixed shapes across children: singles (same-n singles from
      // different processes merge) and packed batches.
      const int n = 6 + c % 3;
      const std::size_t count = (c % 2 == 0) ? 1 : 4;
      ::_exit(client_workload(endpoint, n, count, 12,
                              1000 * static_cast<std::uint64_t>(c + 1)));
    }
    children.push_back(pid);
  }

  Daemon daemon(daemon_options(endpoint, kClients + 1));
  daemon.start();

  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "client " << pid << " failed";
  }
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients * 12));
  daemon.stop();
}

TEST(IpcServe, SameSizeSinglesFromTwoSlotsMergeIntoOneRun) {
  const std::string endpoint = unique_endpoint("merge");
  Daemon daemon(daemon_options(endpoint, 2));
  // Not started yet: attach admits kWarming, so both singles sit in their
  // rings until the first poll round pops them together.
  constexpr int kN = 8;
  auto first = Client::connect({.endpoint = endpoint});
  auto second = Client::connect({.endpoint = endpoint});
  const auto reference = api::Planner().backend("generated").plan(kN);
  std::vector<std::vector<double>> inputs;
  Client::Ticket tickets[2];
  double* staged[2];
  Client* clients[2] = {&first, &second};
  for (int c = 0; c < 2; ++c) {
    inputs.push_back(util::random_vector(std::size_t{1} << kN, 60 + c));
    staged[c] = clients[c]->stage(kN);
    std::memcpy(staged[c], inputs[c].data(),
                inputs[c].size() * sizeof(double));
    ASSERT_EQ(clients[c]->submit(kN, staged[c], 1, tickets[c]), Status::kOk);
  }

  daemon.start();
  for (int c = 0; c < 2; ++c) {
    ASSERT_EQ(clients[c]->wait(tickets[c]), Status::kOk);
    std::vector<double> expected = inputs[c];
    reference.execute(expected.data());
    EXPECT_EQ(std::memcmp(staged[c], expected.data(),
                          expected.size() * sizeof(double)),
              0)
        << "client " << c << " not bit-exact";
  }
  const auto stats = daemon.engine().stats();
  EXPECT_EQ(stats.batches, 1u) << "the two singles did not merge";
  EXPECT_EQ(stats.singles, 0u);
  EXPECT_EQ(stats.vectors, 2u);
  daemon.stop();
}

TEST(IpcServe, AdmissionControlRejectsWithServerFull) {
  const std::string endpoint = unique_endpoint("admission");
  Daemon daemon(daemon_options(endpoint, 1));
  daemon.start();

  auto first = Client::connect({.endpoint = endpoint});
  try {
    auto second = Client::connect({.endpoint = endpoint});
    FAIL() << "second connect on a 1-slot daemon must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kServerFull);
  }
  daemon.stop();
}

TEST(IpcServe, VersionOrAbiMismatchIsRefusedWithoutClaimingASlot) {
  const std::string endpoint = unique_endpoint("abigate");
  Daemon daemon(daemon_options(endpoint, 2));
  Shm peer = Shm::open(shm_name_for(endpoint));
  auto* hdr = static_cast<ControlHeader*>(peer.data());
  Layout layout;
  layout.slot_count = hdr->slot_count;
  layout.arena_doubles = hdr->arena_doubles;
  const auto refused_without_a_slot = [&](const char* what) {
    try {
      auto client = Client::connect({.endpoint = endpoint});
      ADD_FAILURE() << what << ": connect must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::kBadRequest) << what;
    }
    for (std::uint32_t s = 0; s < layout.slot_count; ++s) {
      EXPECT_EQ(layout.slot(peer.data(), s)->state.load(), kFree)
          << what << ": slot " << s;
    }
  };

  hdr->version = kVersion + 1;
  refused_without_a_slot("version");
  hdr->version = kVersion;
  hdr->abi = abi_tag() ^ 1u;
  refused_without_a_slot("abi");
  hdr->abi = abi_tag();
  EXPECT_NO_THROW(Client::connect({.endpoint = endpoint}));
  daemon.stop();
}

TEST(IpcServe, OptionsOutsideTheirRangesAreRefused) {
  DaemonOptions options = daemon_options(unique_endpoint("ranges"));
  options.timeout_ms = UINT64_MAX;  // what a wrapped `--timeout-ms=-1` was
  EXPECT_THROW(Daemon{options}, std::invalid_argument);
}

TEST(IpcServe, TypedShapeErrors) {
  const std::string endpoint = unique_endpoint("shapes");
  DaemonOptions options;
  options.endpoint = endpoint;
  options.slots = 1;
  options.arena_doubles = 1 << 10;
  Daemon daemon(options);
  daemon.start();

  auto client = Client::connect({.endpoint = endpoint});
  try {
    client.stage(12);  // 4096 doubles can never fit a 1024-double arena
    FAIL() << "oversized stage must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kTooLarge);
  }
  double* x = client.stage(4);
  Client::Ticket ticket;
  EXPECT_EQ(client.submit(0, x, 1, ticket), Status::kBadRequest);
  EXPECT_EQ(client.submit(31, x, 1, ticket), Status::kBadRequest);
  EXPECT_EQ(client.transform(4, x), Status::kOk);  // slot still healthy
  daemon.stop();
}

TEST(IpcServe, SecondDaemonOnLiveEndpointRefused) {
  const std::string endpoint = unique_endpoint("twodaemons");
  Daemon daemon(daemon_options(endpoint));
  daemon.start();
  try {
    Daemon usurper(daemon_options(endpoint));
    FAIL() << "a live endpoint must not be taken over";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kServerFull);
  }
  daemon.stop();
}

TEST(IpcServe, CounterLineNamesEachCounterOnceInListOrder) {
  // Distinct values, so a counter loaded into the wrong field or printed
  // twice shows.  The line is the `whtd --stats` format.
  SharedStats shared{};
  std::uint64_t next = 1;
#define WHTLAB_TEST_STORE_DISTINCT(name) shared.name.store(next++);
  WHTLAB_IPC_COUNTERS(WHTLAB_TEST_STORE_DISTINCT)
#undef WHTLAB_TEST_STORE_DISTINCT
  EXPECT_EQ(to_string(load_counters(shared)),
            "requests=1 vectors=2 throttled=3 exec_errors=4 reclaimed=5 "
            "dropped=6 protocol_errors=7 evictions=8 shed_expired=9 "
            "drained=10 drain_aborted=11 drain_refused=12");
}

}  // namespace
}  // namespace whtlab::ipc
