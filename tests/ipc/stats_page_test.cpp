// The whtd telemetry stats page: a forked read-only observer racing a
// serving daemon must never see a torn snapshot.
//
// The page is seqlock-guarded (protocol.hpp): the daemon publishes whole
// snapshots between stats_write_begin/end, observers copy with
// stats_read().  The reader child here hammers snapshots while the parent
// daemon serves live traffic and publishes at an aggressive cadence, and
// asserts structural invariants that a torn read would break: magic and
// version intact, series table in bounds, NUL-terminated backend names,
// min <= max and p50 <= p99 within every populated series, and per-series
// counts and serving totals that only ever move forward (every series is a
// lifetime total).  Once traffic stops, the published request total must
// equal the requests sent.
//
// Fork discipline (as in ipc_serve_test): the child is forked BEFORE the
// Daemon is constructed, while the process is single-threaded, and leaves
// through _exit so the forked gtest runtime never runs atexit hooks.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>

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

/// The reader child's whole life.  Returns 0 on success; distinct codes
/// name the invariant that failed (they surface in the waitpid status).
int reader_main(const std::string& endpoint) {
  const std::string name = stats_shm_name_for(endpoint);
  // The daemon binds the page during construction; wait for it.  Shm::create
  // names the page before it sizes it, and the daemon stamps the header
  // after that, so a page that exists can still be empty (a zero-length
  // mmap fails) or unstamped: poll until it opens full-size with its magic.
  static StatsPage page;  // ~18 KiB; keep the child's stack small
  Shm shm;
  for (int spin = 0;; ++spin) {
    if (spin > 10000) return 30;  // the page never appeared
    try {
      shm = Shm::open_readonly(name);
      if (shm.size() >= sizeof(StatsPage) &&
          stats_read(*static_cast<const StatsPage*>(shm.data()), page) &&
          page.header.magic == kStatsMagic) {
        break;
      }
    } catch (...) {
    }
    ::usleep(1000);
  }
  const auto* shared = static_cast<const StatsPage*>(shm.data());

  std::map<std::tuple<std::int32_t, std::string, std::uint32_t>,
           std::uint64_t>
      last_count;
  std::uint64_t last_requests = 0;
  int consistent = 0;
  bool saw_traffic = false;
  for (int spin = 0; consistent < 200 || !saw_traffic; ++spin) {
    if (spin > 200000) return 33;  // never saw served traffic
    if (!stats_read(*shared, page)) continue;  // publish storm: retry
    ++consistent;
    const auto& h = page.header;
    if (h.magic != kStatsMagic) return 20;
    if (h.version != kStatsVersion) return 21;
    if (h.series_count > kStatsSeriesCapacity) return 22;
    if (h.totals.requests < last_requests) return 23;  // totals went backward
    last_requests = h.totals.requests;
    if (h.totals.requests > 0) saw_traffic = true;
    for (std::uint32_t i = 0; i < h.series_count; ++i) {
      const StatsSeries& s = page.series[i];
      if (s.batch > 1) return 24;
      if (::strnlen(s.backend, sizeof(s.backend)) >= sizeof(s.backend)) {
        return 25;  // unterminated name: torn string bytes
      }
      if (s.count == 0) continue;
      if (s.min > s.max) return 26;
      if (s.p50 > s.p99) return 27;
      // Lifetime totals: a series can only accumulate.
      auto& prev = last_count[{s.n, s.backend, s.batch}];
      if (s.count < prev) return 28;
      prev = s.count;
    }
  }
  return 0;
}

TEST(IpcStatsPage, ForkedObserverNeverSeesATornSnapshot) {
  const std::string endpoint = unique_endpoint("statspage");

  const pid_t reader = ::fork();
  ASSERT_GE(reader, 0);
  if (reader == 0) ::_exit(reader_main(endpoint));

  DaemonOptions options;
  options.endpoint = endpoint;
  options.slots = 2;
  options.sweep_ms = 2;  // publish every 2 ms: maximal seqlock churn
  Daemon daemon(options);
  daemon.start();

  auto client = Client::connect({.endpoint = endpoint});
  const int n = 6;
  const std::size_t doubles = std::size_t{1} << n;
  int status = 0;
  std::uint64_t sent = 0;
  // Serve until the reader is satisfied (it needs 200 consistent snapshots
  // with traffic in them) — bounded by the reader's own spin cap.  Singles
  // and 2-vector batches alternate, so both serving paths feed the totals.
  for (int r = 0;; ++r) {
    const std::size_t count = 1 + r % 2;
    double* x = client.stage(n, count);
    const auto input = util::random_vector(doubles * count,
                                           static_cast<std::uint64_t>(r) + 1);
    std::memcpy(x, input.data(), input.size() * sizeof(double));
    ASSERT_EQ(client.transform(n, x, count), Status::kOk);
    ++sent;
    const pid_t done = ::waitpid(reader, &status, WNOHANG);
    if (done == reader) break;
    ASSERT_LT(r, 2000000) << "reader child never finished";
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "reader invariant failed (see reader_main for the code)";

  // Traffic has stopped: a later publish must carry exactly the requests
  // sent — the daemon's own count, whichever Engine path served them.
  const Shm shm = Shm::open_readonly(stats_shm_name_for(endpoint));
  const auto* shared = static_cast<const StatsPage*>(shm.data());
  auto page = std::make_unique<StatsPage>();
  std::uint64_t published = 0;
  for (int spin = 0; spin < 5000 && published != sent; ++spin) {
    if (stats_read(*shared, *page)) published = page->header.totals.requests;
    ::usleep(1000);
  }
  EXPECT_EQ(published, sent);
}

TEST(IpcStatsPage, PublishesOnlySeriesWithTraffic) {
  // The first touch of n = 6 registers both shapes of every candidate, yet
  // only the winner's single path serves: the page carries that series
  // alone, not the empty rows beside it.
  const std::string endpoint = unique_endpoint("statsbusy");
  DaemonOptions options;
  options.endpoint = endpoint;
  options.slots = 1;
  options.sweep_ms = 2;
  Daemon daemon(options);
  daemon.start();

  auto client = Client::connect({.endpoint = endpoint});
  const int n = 6;
  constexpr std::uint64_t kSent = 5;
  for (std::uint64_t r = 0; r < kSent; ++r) {
    double* x = client.stage(n, 1);
    const auto input = util::random_vector(std::size_t{1} << n, r + 1);
    std::memcpy(x, input.data(), input.size() * sizeof(double));
    ASSERT_EQ(client.transform(n, x, 1), Status::kOk);
  }

  const Shm shm = Shm::open_readonly(stats_shm_name_for(endpoint));
  const auto* shared = static_cast<const StatsPage*>(shm.data());
  auto page = std::make_unique<StatsPage>();
  bool published = false;
  for (int spin = 0; spin < 5000 && !published; ++spin) {
    published = stats_read(*shared, *page) &&
                page->header.totals.requests == kSent;
    if (!published) ::usleep(1000);
  }
  ASSERT_TRUE(published) << "the page never caught up with the traffic";
  ASSERT_GE(page->header.series_count, 1u);
  std::uint64_t served_singles = 0;
  for (std::uint32_t i = 0; i < page->header.series_count; ++i) {
    const StatsSeries& s = page->series[i];
    EXPECT_GT(s.count, 0u) << s.backend << (s.batch ? " batch" : " single");
    EXPECT_EQ(s.n, n);
    if (s.batch == 0) served_singles += s.count;
  }
  EXPECT_EQ(served_singles, kSent) << "the served single series is on it";
}

}  // namespace
}  // namespace whtlab::ipc
