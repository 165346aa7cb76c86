// Overload-safe degradation: deadline shedding and credit flow control.
//
// Two independent pressure valves, both typed (never silent):
//   * deadline shedding — a request whose deadline_ns already passed is
//     answered kTimeout BEFORE execution (and before it is charged against
//     any budget): under overload the daemon stops burning cycles on
//     answers nobody is waiting for, while in-deadline traffic is served
//     normally.
//   * credit flow control — per-slot token bucket charging one credit per
//     staged vector; an exhausted client gets typed kThrottled while its
//     neighbours' buckets (and the daemon) are untouched.
//
// The shedding test forges its requests through a raw segment mapping (the
// same protocol-legal claim dance the client library does) because the
// shipped library can't be asked to stamp an already-dead deadline — which
// is itself part of the trust story: expired stamps arrive only from slow,
// buggy, or hostile peers, and the daemon's answer is the same typed
// kTimeout for all three.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/planner.hpp"
#include "ipc/client.hpp"
#include "ipc/daemon.hpp"
#include "ipc/futex.hpp"
#include "ipc/protocol.hpp"
#include "ipc/shm.hpp"
#include "util/rng.hpp"

namespace whtlab::ipc {
namespace {

std::string unique_endpoint(const char* tag) {
  return std::string("test-") + tag + "-" + std::to_string(::getpid());
}

/// A raw protocol-level tenancy: the test speaks shm directly so it can
/// stamp deadlines the client library never would.
struct RawTenant {
  Shm shm;
  ControlHeader* hdr = nullptr;
  SlotShared* cell = nullptr;
  double* arena = nullptr;
  std::uint64_t generation = 0;
  std::uint32_t counter = 0;

  static RawTenant claim(const std::string& endpoint) {
    RawTenant t;
    t.shm = Shm::open(shm_name_for(endpoint));
    t.hdr = static_cast<ControlHeader*>(t.shm.data());
    Layout layout;
    layout.slot_count = t.hdr->slot_count;
    layout.arena_doubles = t.hdr->arena_doubles;
    for (std::uint32_t s = 0; s < layout.slot_count; ++s) {
      SlotShared* cell = layout.slot(t.shm.data(), s);
      std::uint32_t expected = kFree;
      if (!cell->state.compare_exchange_strong(expected, kClaimed,
                                               std::memory_order_acq_rel)) {
        continue;
      }
      t.cell = cell;
      t.arena = layout.arena(t.shm.data(), s);
      t.generation =
          cell->generation.fetch_add(1, std::memory_order_acq_rel) + 1;
      cell->pid.store(static_cast<std::uint32_t>(::getpid()),
                      std::memory_order_release);
      cell->requests.reset();
      cell->responses.reset();
      cell->state.store(kActive, std::memory_order_release);
      return t;
    }
    throw std::runtime_error("no free slot");
  }

  std::uint64_t push(std::uint32_t n, std::uint32_t count,
                     std::uint64_t deadline_ns) {
    Request request;
    request.seq = (generation << 32) | std::uint64_t{++counter};
    request.n = n;
    request.count = count;
    request.offset = 0;
    request.deadline_ns = deadline_ns;
    EXPECT_TRUE(cell->requests.try_push(request));
    hdr->doorbell.fetch_add(1, std::memory_order_release);
    futex_wake_all(hdr->doorbell);
    return request.seq;
  }

  /// Pops the next response within `ms`, or fails the test.
  Response await_response(int ms = 5000) {
    Response response{};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (!cell->responses.try_pop(response)) {
      if (std::chrono::steady_clock::now() >= deadline) {
        ADD_FAILURE() << "no response within " << ms << " ms";
        return response;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return response;
  }

  void release() {
    cell->pid.store(0, std::memory_order_release);
    cell->state.store(kFree, std::memory_order_release);
  }
};

TEST(Overload, ExpiredRequestsAreShedTypedBeforeExecution) {
  const std::string endpoint = unique_endpoint("shed");
  DaemonOptions options;
  options.endpoint = endpoint;
  options.slots = 2;
  Daemon daemon(options);
  daemon.start();
  {
    RawTenant t = RawTenant::claim(endpoint);

    // Stage recognizable data, then flood with already-expired requests
    // (deadline_ns=1: the monotonic clock passed that at boot).
    constexpr int kExpired = 6;
    const std::size_t doubles = std::size_t{1} << 6;
    for (std::size_t i = 0; i < doubles; ++i) {
      t.arena[i] = static_cast<double>(i) + 0.25;
    }
    std::vector<std::uint64_t> seqs;
    for (int r = 0; r < kExpired; ++r) {
      seqs.push_back(t.push(6, 1, /*deadline_ns=*/1));
    }
    for (int r = 0; r < kExpired; ++r) {
      const Response response = t.await_response();
      EXPECT_EQ(response.seq, seqs[static_cast<std::size_t>(r)]);
      EXPECT_EQ(static_cast<Status>(response.status), Status::kTimeout)
          << "shedding must be typed, round " << r;
    }
    for (std::size_t i = 0; i < doubles; ++i) {
      ASSERT_EQ(t.arena[i], static_cast<double>(i) + 0.25)
          << "a shed request must never touch the staged data (index " << i
          << ")";
    }

    // The valve is selective: an in-deadline request on the same slot, with
    // the same staging, executes normally.
    const auto input = util::random_vector(doubles, 99);
    std::memcpy(t.arena, input.data(), doubles * sizeof(double));
    const std::uint64_t seq =
        t.push(6, 1, monotonic_ns() + 10'000'000'000ULL);
    const Response served = t.await_response();
    EXPECT_EQ(served.seq, seq);
    EXPECT_EQ(static_cast<Status>(served.status), Status::kOk);
    std::vector<double> expected = input;
    api::Planner().plan(6).execute(expected.data());
    EXPECT_EQ(std::memcmp(t.arena, expected.data(), doubles * sizeof(double)),
              0)
        << "the in-deadline request must be served bit-exact";

    const auto stats = daemon.stats();
    EXPECT_EQ(stats.shed_expired, static_cast<std::uint64_t>(kExpired));
    EXPECT_EQ(stats.protocol_errors, 0u)
        << "an expired deadline is overload, not hostility — no strikes";
    t.release();
  }
  daemon.stop();
}

TEST(Overload, CreditExhaustionThrottlesOnlyTheSpender) {
  const std::string endpoint = unique_endpoint("credits");
  DaemonOptions options;
  options.endpoint = endpoint;
  options.slots = 2;
  options.credit_limit = 4;  // 4 vectors ...
  options.credit_window_ns = 3600ULL * 1000000000ULL;  // ... per hour
  Daemon daemon(options);
  daemon.start();

  auto greedy = Client::connect({.endpoint = endpoint});
  auto polite = Client::connect({.endpoint = endpoint});
  EXPECT_EQ(greedy.credits(), 4u) << "the advisory balance starts full";

  // One credit per staged vector: the 4-credit bucket affords exactly 4
  // single-vector transforms this hour, then typed backpressure.
  double* gx = greedy.stage(6);
  for (int r = 0; r < 4; ++r) {
    ASSERT_EQ(greedy.transform(6, gx), Status::kOk) << "round " << r;
  }
  EXPECT_EQ(greedy.credits(), 0u) << "the advisory balance tracks spends";
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(greedy.transform(6, gx), Status::kThrottled) << "round " << r;
  }

  // Buckets are per slot: the polite neighbour still has its own 4.
  double* px = polite.stage(6);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(polite.transform(6, px), Status::kOk) << "round " << r;
  }

  EXPECT_EQ(daemon.stats().throttled, 3u);
  daemon.stop();
}

TEST(Overload, BatchCostIsChargedPerVector) {
  const std::string endpoint = unique_endpoint("batchcost");
  DaemonOptions options;
  options.endpoint = endpoint;
  options.slots = 1;
  options.credit_limit = 8;
  options.credit_window_ns = 3600ULL * 1000000000ULL;
  Daemon daemon(options);
  daemon.start();

  auto client = Client::connect({.endpoint = endpoint});
  // A 6-vector batch costs 6 of the 8 credits; the next 3-vector batch no
  // longer fits and is refused whole (no partial execution), but a
  // 2-vector batch still goes through.
  double* x = client.stage(5, 6);
  ASSERT_EQ(client.transform(5, x, 6), Status::kOk);
  EXPECT_EQ(client.credits(), 2u);
  x = client.stage(5, 3);
  EXPECT_EQ(client.transform(5, x, 3), Status::kThrottled);
  x = client.stage(5, 2);
  EXPECT_EQ(client.transform(5, x, 2), Status::kOk);
  EXPECT_EQ(client.credits(), 0u);
  daemon.stop();
}

TEST(Overload, ClientDeadlineKnobIsValidatedAndHarmlessWhenGenerous) {
  const std::string endpoint = unique_endpoint("deadline");
  DaemonOptions options;
  options.endpoint = endpoint;
  options.slots = 1;
  Daemon daemon(options);
  daemon.start();

  try {
    auto bad = Client::connect(
        {.endpoint = endpoint, .request_deadline_ms = 86400001});
    FAIL() << "a deadline past 24h must be refused at connect";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }

  // A generous deadline stamps every request but sheds none of them.
  auto client = Client::connect(
      {.endpoint = endpoint, .request_deadline_ms = 10000});
  double* x = client.stage(6);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(client.transform(6, x), Status::kOk) << "round " << r;
  }
  EXPECT_EQ(daemon.stats().shed_expired, 0u);
  daemon.stop();
}

}  // namespace
}  // namespace whtlab::ipc
