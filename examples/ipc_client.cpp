// ipc_client — the two-call zero-copy happy path against a running whtd.
//
//   whtd &                            # terminal 1: the daemon
//   ./ipc_client                      # terminal 2: stage + transform
//
// The client maps the daemon's shm segment, stages vectors straight into
// its slot's arena (no copy crosses the process boundary), and blocks on
// the response ring:
//
//   auto client = whtlab::ipc::Client::connect({.endpoint = "whtlab"});
//   double* x = client.stage(n);           // 1: shm pointer — write here
//   auto status = client.transform(n, x);  // 2: result is in x
//
// --verify computes the same transforms in-process and requires bit-exact
// agreement — the CI smoke job runs several of these concurrently against
// one daemon.  Exit: 0 ok, 1 mismatch/error, 3 daemon unreachable.
//
// --reconnect opts into the client's fault-tolerant mode (the chaos smoke
// job pairs it with a SIGKILL-restarted `whtd --supervise`): requests ride
// out daemon crashes via auto-reconnect + replay, typed non-OK statuses are
// counted but tolerated, a bit-exactness failure is always fatal, and the
// run succeeds iff at least one request completed verified.
//
// --strict tightens that to the zero-downtime contract (the rolling-upgrade
// smoke job pairs it with a SIGHUP-cycled `whtd --supervise`): EVERY
// request must complete kOk — a planned restart that costs even one typed
// failure fails the run.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/wht.hpp"
#include "ipc/client.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace whtlab;

  util::Cli cli;
  cli.add_flag("endpoint", "daemon endpoint to connect to", "whtlab");
  cli.add_flag("n", "transform size (log2)", "10");
  cli.add_flag("count", "vectors per request", "1");
  cli.add_flag("requests", "round trips to serve", "8");
  cli.add_flag("seed", "rng seed for the staged inputs", "1");
  cli.add_flag("wait-ms", "wait this long for the daemon to come up", "2000");
  cli.add_flag("pace-ms", "sleep between requests (spread a chaos run)", "0");
  cli.add_flag("deadline-ms",
               "per-request execution deadline (0 = none; the daemon "
               "answers kTimeout past it)", "0");
  cli.add_bool("verify", "check results bit-exact against in-process plans");
  cli.add_bool("reconnect", "auto-reconnect and replay across daemon restarts");
  cli.add_bool("strict",
               "zero failed requests allowed (rolling-restart contract)");
  if (!cli.parse(argc, argv)) return 2;

  const std::string endpoint = cli.get("endpoint");
  const int n = static_cast<int>(cli.get_int("n", 10));
  const auto count = static_cast<std::size_t>(cli.get_int("count", 1));
  const int requests = static_cast<int>(cli.get_int("requests", 8));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto pace_ms = cli.get_int("pace-ms", 0);
  const bool verify = cli.has("verify");
  const bool reconnect = cli.has("reconnect");
  const bool strict = cli.has("strict");
  const std::size_t doubles = count << n;

  if (!ipc::Client::wait_for_daemon(
          endpoint, static_cast<std::uint64_t>(cli.get_int("wait-ms", 2000)))) {
    std::fprintf(stderr, "ipc_client: no daemon at endpoint '%s'\n",
                 endpoint.c_str());
    return 3;
  }

  try {
    ipc::Client::Options copts;
    copts.endpoint = endpoint;
    copts.reconnect = reconnect;
    copts.request_deadline_ms =
        static_cast<std::uint64_t>(cli.get_int("deadline-ms", 0));
    auto client = ipc::Client::connect(copts);
    std::printf("connected: slot %d, arena %zu doubles\n", client.slot_index(),
                client.arena_capacity());

    // The in-process reference the daemon must agree with bit for bit (all
    // backends compute the bit-identical butterfly; see ROADMAP).
    wht::Transform reference;
    if (verify) reference = wht::Planner().plan(n);

    int ok = 0;
    int failed = 0;
    for (int r = 0; r < requests; ++r) {
      if (pace_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(pace_ms));
      }
      double* x = nullptr;
      try {
        x = client.stage(n, count);                // call 1: stage in shm
      } catch (const ipc::Error& e) {
        // In reconnect mode a typed staging failure during an outage is an
        // answer, not a crash; without it, it ends the run as before.
        if (!reconnect) throw;
        std::fprintf(stderr, "ipc_client: request %d stage failed: %s\n", r,
                     ipc::to_string(e.status()));
        ++failed;
        continue;
      }
      const auto input = util::random_vector(
          doubles, seed + static_cast<std::uint64_t>(r));
      std::memcpy(x, input.data(), doubles * sizeof(double));

      const ipc::Status status = client.transform(n, x, count);  // call 2
      if (status != ipc::Status::kOk) {
        std::fprintf(stderr, "ipc_client: request %d failed: %s\n", r,
                     ipc::to_string(status));
        if (!reconnect) return 1;
        ++failed;
        continue;
      }

      if (verify) {
        std::vector<double> expected = input;
        for (std::size_t v = 0; v < count; ++v) {
          reference.execute(expected.data() + (v << n));
        }
        if (std::memcmp(x, expected.data(), doubles * sizeof(double)) != 0) {
          std::fprintf(stderr,
                       "ipc_client: request %d NOT bit-exact vs in-process\n",
                       r);
          return 1;  // corruption is fatal in every mode
        }
      }
      ++ok;
    }

    if (strict && failed > 0) {
      std::fprintf(stderr,
                   "ipc_client: strict mode — %d typed failure(s), zero "
                   "allowed\n",
                   failed);
      return 1;
    }
    if (reconnect && ok == 0) {
      std::fprintf(stderr,
                   "ipc_client: every request failed (%d typed failures)\n",
                   failed);
      return 1;
    }
    const auto stats = client.stats();
    std::printf("%d/%d requests ok (%zu vectors each)%s, %llu reconnects\n",
                ok, requests, count, verify ? ", all bit-exact" : "",
                static_cast<unsigned long long>(client.reconnects()));
    std::printf("daemon: requests=%llu vectors=%llu throttled=%llu "
                "reclaimed=%llu\n",
                (unsigned long long)stats.requests,
                (unsigned long long)stats.vectors,
                (unsigned long long)stats.throttled,
                (unsigned long long)stats.reclaimed);
  } catch (const ipc::Error& e) {
    std::fprintf(stderr, "ipc_client: %s\n", e.what());
    return e.status() == ipc::Status::kDaemonGone ? 3 : 1;
  }
  return 0;
}
