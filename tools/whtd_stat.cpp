// whtd_stat — read-only observer for a live whtd's telemetry stats page.
//
// The serving daemon periodically publishes an Engine telemetry snapshot
// into a separate shm segment ("/whtlab.<endpoint>.stats", see
// ipc/protocol.hpp) guarded by a seqlock.  This tool maps that segment
// read-only (it provably cannot perturb the daemon it is observing), takes
// a consistent copy with stats_snapshot(), and renders it:
//
//   whtd_stat                         # one-shot text dump, endpoint "whtlab"
//   whtd_stat --endpoint lab --json   # machine-readable snapshot
//   whtd_stat --watch 500             # re-render every 500 ms until ^C
//
// Exit status: 0 after at least one successful render; 1 when the stats
// segment is missing / malformed / unreadable (one-shot mode; a page that
// claims more series than it holds is malformed), 2 on usage errors.
// --watch keeps trying across daemon restarts — the segment is remapped on
// every tick, so a rolling restart (new epoch, new pid) is picked up rather
// than leaving the observer staring at a dead mapping.
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "ipc/protocol.hpp"
#include "util/cli.hpp"

namespace {

using whtlab::ipc::StatsPage;
using whtlab::ipc::StatsSeries;

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

/// Length of a series' backend name: up to its NUL, never past its bytes.
int name_length(const StatsSeries& s) {
  return static_cast<int>(::strnlen(s.backend, sizeof(s.backend)));
}

void print_text(const StatsPage& page) {
  const auto& h = page.header;
  const std::uint64_t now = whtlab::ipc::monotonic_ns();
  const double age_ms = h.published_ns != 0 && now > h.published_ns
                            ? static_cast<double>(now - h.published_ns) / 1e6
                            : 0.0;
  std::printf(
      "whtd pid=%" PRIu32 " epoch=%" PRIu64 " published %.0f ms ago\n",
      h.pid, h.epoch, age_ms);
  std::printf("totals: requests=%" PRIu64 " vectors=%" PRIu64
              " batches=%" PRIu64 " failures=%" PRIu64 " fallbacks=%" PRIu64
              "\n",
              h.totals.requests, h.totals.vectors, h.totals.batches,
              h.totals.failures, h.totals.fallbacks);
  if (h.series_count == 0) {
    std::printf("(no telemetry series yet)\n");
    return;
  }
  std::printf("%4s  %-12s %-7s %10s %12s %12s %12s %12s\n", "n", "backend",
              "shape", "count", "mean", "p50", "p99", "max");
  for (std::uint32_t i = 0; i < h.series_count; ++i) {
    const StatsSeries& s = page.series[i];
    std::printf("%4d  %-12.*s %-7s %10" PRIu64 " %12.0f %12.0f %12.0f"
                " %12" PRIu64 "\n",
                s.n, name_length(s), s.backend, s.batch ? "batch" : "single",
                s.count, s.mean, s.p50, s.p99, s.max);
  }
}

/// Backend names come from BackendRegistry identifiers ([a-z_]+ in this
/// repo), so plain text inside quotes is safe JSON; guard anyway by
/// dropping quotes and backslashes if a hostile daemon wrote them.
void print_json_name(const StatsSeries& s) {
  std::putchar('"');
  for (int i = 0; i < name_length(s); ++i) {
    const char c = s.backend[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void print_json(const StatsPage& page) {
  const auto& h = page.header;
  std::printf("{\"pid\":%" PRIu32 ",\"epoch\":%" PRIu64
              ",\"published_ns\":%" PRIu64 ",",
              h.pid, h.epoch, h.published_ns);
  std::printf("\"totals\":{\"requests\":%" PRIu64 ",\"vectors\":%" PRIu64
              ",\"batches\":%" PRIu64 ",\"failures\":%" PRIu64
              ",\"fallbacks\":%" PRIu64 "},",
              h.totals.requests, h.totals.vectors, h.totals.batches,
              h.totals.failures, h.totals.fallbacks);
  std::printf("\"series\":[");
  for (std::uint32_t i = 0; i < h.series_count; ++i) {
    const StatsSeries& s = page.series[i];
    if (i != 0) std::putchar(',');
    std::printf("{\"n\":%d,\"backend\":", s.n);
    print_json_name(s);
    std::printf(",\"shape\":\"%s\",\"count\":%" PRIu64 ",\"min\":%" PRIu64
                ",\"max\":%" PRIu64 ",\"mean\":%.1f,\"p50\":%.1f,\"p99\":%.1f}",
                s.batch ? "batch" : "single", s.count, s.min, s.max, s.mean,
                s.p50, s.p99);
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  whtlab::util::Cli cli;
  cli.add_flag("endpoint", "serving endpoint to observe (default whtlab)");
  cli.add_flag("watch", "re-render every N ms until interrupted");
  cli.add_bool("json", "emit one JSON object per snapshot instead of text");
  if (!cli.parse(argc, argv)) return 2;

  const std::string endpoint = cli.get("endpoint", "whtlab");
  const bool json = cli.has("json");
  const std::int64_t watch_ms = cli.get_int("watch", 0);
  if (cli.has("watch") && watch_ms < 1) {
    std::fprintf(stderr, "whtd_stat: --watch must be >= 1 ms\n");
    return 2;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  static StatsPage page;  // ~18 KiB — keep it off the stack
  std::string error;
  if (watch_ms == 0) {
    if (!whtlab::ipc::stats_snapshot(endpoint, page, error)) {
      std::fprintf(stderr, "whtd_stat: %s\n", error.c_str());
      return 1;
    }
    json ? print_json(page) : print_text(page);
    return 0;
  }

  // Watch mode: remap every tick so daemon restarts/handoffs (which unlink
  // and recreate the segment) are followed; transient misses are reported
  // once per state change rather than spamming every tick.
  bool was_ok = true;
  while (!g_stop) {
    if (whtlab::ipc::stats_snapshot(endpoint, page, error)) {
      json ? print_json(page) : print_text(page);
      if (!json) std::printf("\n");
      std::fflush(stdout);
      was_ok = true;
    } else if (was_ok) {
      std::fprintf(stderr, "whtd_stat: %s (still watching)\n", error.c_str());
      was_ok = false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(watch_ms));
  }
  return 0;
}
