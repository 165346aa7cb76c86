// bench_ipc — cross-process serving driver (writes BENCH_ipc.json).
//
// Measures the whtd shared-memory path end to end: a forked daemon process
// owns the Engine, C forked client processes connect through the shm
// protocol and hammer it with blocking round trips.  Reported per cell:
// requests/s, vectors/s, and p50/p99 round-trip latency from the clients'
// merged telemetry::Accumulator histograms (log2 buckets: a percentile is
// its bucket's upper bound, 2^b - 1 ns).  Shapes:
//
//   single  one 2^n vector per request (round-trip latency shape; the
//           daemon merges same-n singles popped in one poll round, so
//           concurrent clients at the same n share batched runs)
//   batch   --batch vectors per request (the bandwidth shape; direct
//           arbitrated execute_many; the JSON records the count as
//           "batch_vectors", since "batch" names this shape's section)
//   mixed   singles at n-2/n/n+2 interleaved with batches
//
// An in-process Engine baseline (same shapes, one thread) is recorded
// alongside so the JSON answers "what does crossing the process boundary
// cost" directly.  Fork discipline: the daemon child is forked FIRST and
// clients are forked from a parent that never starts a thread; the
// in-process baseline runs last, after all forking is done.
//
// Every loop transforms the same buffers in place for seconds.  Since
// H·H = 2^n·I, each buffer gets the exact 2^-n rescale after every second
// transform, so the data stays finite; the run exits 1 if any buffer ends
// non-finite.
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/wht.hpp"
#include "ipc/client.hpp"
#include "ipc/daemon.hpp"
#include "ipc/shm.hpp"
#include "ipc/supervisor.hpp"
#include "telemetry/accumulator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace whtlab;

/// What one client child reports back over its result pipe.
struct ClientReport {
  std::uint64_t requests = 0;
  std::uint64_t vectors = 0;
  std::uint64_t errors = 0;
  std::uint64_t reconnects = 0;  // re-handshakes (handoff mode)
  std::uint64_t nonfinite = 0;   // buffers that ended non-finite
  telemetry::Stats latency;      // round trips, ns
};
static_assert(std::is_trivially_copyable_v<ClientReport>,
              "ClientReport crosses the result pipe as raw bytes");

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// `count` vectors of 2^n doubles at `data`, transformed in place over and
/// over.  H·H = 2^n·I, so every second transform is followed by the exact
/// 2^-n rescale (a power of two, so no rounding), which keeps the data
/// finite for any number of requests.
struct Staged {
  int n = 0;
  std::size_t count = 1;
  double* data = nullptr;
  std::uint64_t calls = 0;

  /// Call after each in-place transform of the whole buffer.
  void transformed() {
    if (++calls % 2 != 0) return;
    const double scale = std::ldexp(1.0, -n);
    for (std::size_t i = 0; i < (count << n); ++i) data[i] *= scale;
  }

  bool finite() const {
    return std::all_of(data, data + (count << n),
                       [](double v) { return std::isfinite(v); });
  }
};

/// Fills `staged` with seeded random data.
void fill(const Staged& staged, std::uint64_t seed) {
  const auto data = util::random_vector(staged.count << staged.n, seed);
  std::memcpy(staged.data, data.data(), data.size() * sizeof(double));
}

struct Shape {
  std::string name;  // "single" | "batch" | "mixed"
  int n = 0;
  std::size_t batch = 1;
};

/// The (n, count) of every buffer a shape's requests cycle through.
std::vector<std::pair<int, std::size_t>> buffers_of(const Shape& shape) {
  if (shape.name == "single") return {{shape.n, 1}};
  if (shape.name == "batch") return {{shape.n, shape.batch}};
  return {{shape.n - 2, 1}, {shape.n, 1}, {shape.n + 2, 1},  // mixed
          {shape.n, shape.batch}};
}

/// One client child's serving loop: connect, stage once, round-trip until
/// the deadline, report.  Runs in a forked process; only _exit leaves it.
ClientReport run_client(const std::string& endpoint, const Shape& shape,
                        double seconds) {
  ClientReport report;
  telemetry::Accumulator latency;
  auto client = ipc::Client::connect({.endpoint = endpoint});
  std::vector<Staged> staged;
  for (const auto& [n, count] : buffers_of(shape)) {
    staged.push_back({n, count, client.stage(n, count)});
    fill(staged.back(), 7 + n);
  }
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::size_t next = 0;
  while (now_ns() < deadline) {
    Staged& s = staged[next++ % staged.size()];
    const std::uint64_t t0 = now_ns();
    const ipc::Status status = client.transform(s.n, s.data, s.count);
    if (status != ipc::Status::kOk) {
      ++report.errors;
      continue;
    }
    latency.record(now_ns() - t0);
    s.transformed();
    ++report.requests;
    report.vectors += s.count;
  }
  for (const Staged& s : staged) report.nonfinite += s.finite() ? 0 : 1;
  report.latency = latency.snapshot();
  return report;
}

struct Cell {
  int clients = 0;
  double rps = 0.0;
  double vps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  std::uint64_t errors = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t nonfinite = 0;
};

/// Handoff-mode client: a reconnect-enabled verified stream for a fixed
/// duration — the restart blip shows up as the tail of this histogram.
ClientReport run_handoff_client(const std::string& endpoint, int n,
                                double seconds) {
  ClientReport report;
  telemetry::Accumulator latency;
  ipc::Client::Options options;
  options.endpoint = endpoint;
  options.timeout_ms = 5000;
  options.reconnect = true;
  options.reconnect_window_ms = 10000;
  options.backoff_initial_ms = 2;
  options.backoff_max_ms = 100;
  auto client = ipc::Client::connect(options);
  Staged x{n, 1, client.stage(n)};
  fill(x, 7 + n);
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    const std::uint64_t t0 = now_ns();
    const ipc::Status status = client.transform(n, x.data);
    if (status != ipc::Status::kOk) {
      ++report.errors;
      continue;
    }
    latency.record(now_ns() - t0);
    x.transformed();
    ++report.requests;
    ++report.vectors;
  }
  report.nonfinite = x.finite() ? 0 : 1;
  report.reconnects = client.reconnects();
  report.latency = latency.snapshot();
  return report;
}

/// Merges one child's report into a cell and the cell's latency histogram.
void merge_report(Cell& cell, const ClientReport& report,
                  telemetry::Stats& merged, std::uint64_t& requests,
                  std::uint64_t& vectors) {
  requests += report.requests;
  vectors += report.vectors;
  cell.errors += report.errors;
  cell.reconnects += report.reconnects;
  cell.nonfinite += report.nonfinite;
  merged.merge(report.latency);
}

/// Fills the cell's rates and latencies from the merged reports.
void finish_cell(Cell& cell, const telemetry::Stats& latency,
                 std::uint64_t requests, std::uint64_t vectors,
                 double elapsed) {
  cell.rps = static_cast<double>(requests) / elapsed;
  cell.vps = static_cast<double>(vectors) / elapsed;
  cell.p50_us = latency.percentile(0.50) / 1000.0;
  cell.p99_us = latency.percentile(0.99) / 1000.0;
  cell.max_us = static_cast<double>(latency.max) / 1000.0;
}

/// Forks `clients` children against the daemon and merges their reports.
/// The parent must be single-threaded when this is called.
Cell run_cell(const std::string& endpoint, const Shape& shape, int clients,
              double seconds) {
  std::vector<pid_t> pids;
  std::vector<int> result_fds;
  int start_pipe[2];
  if (pipe(start_pipe) != 0) throw std::runtime_error("bench_ipc: pipe");
  for (int c = 0; c < clients; ++c) {
    int result_pipe[2];
    if (pipe(result_pipe) != 0) throw std::runtime_error("bench_ipc: pipe");
    const pid_t pid = fork();
    if (pid == 0) {
      close(start_pipe[1]);
      close(result_pipe[0]);
      char go;
      while (read(start_pipe[0], &go, 1) < 0 && errno == EINTR) {
      }
      ClientReport report;
      try {
        report = run_client(endpoint, shape, seconds);
      } catch (...) {
        report.errors = ~std::uint64_t{0};
      }
      ssize_t written = write(result_pipe[1], &report, sizeof(report));
      (void)written;
      _exit(0);
    }
    close(result_pipe[1]);
    pids.push_back(pid);
    result_fds.push_back(result_pipe[0]);
  }
  close(start_pipe[0]);
  const std::uint64_t t0 = now_ns();
  close(start_pipe[1]);  // EOF = the start gun for every child at once

  Cell cell;
  cell.clients = clients;
  telemetry::Stats merged;
  std::uint64_t requests = 0, vectors = 0;
  for (std::size_t c = 0; c < pids.size(); ++c) {
    ClientReport report;
    std::size_t got = 0;
    while (got < sizeof(report)) {
      const ssize_t r = read(result_fds[c],
                             reinterpret_cast<char*>(&report) + got,
                             sizeof(report) - got);
      if (r <= 0) break;
      got += static_cast<std::size_t>(r);
    }
    close(result_fds[c]);
    int status = 0;
    waitpid(pids[c], &status, 0);
    if (got != sizeof(report)) {
      ++cell.errors;
      continue;
    }
    merge_report(cell, report, merged, requests, vectors);
  }
  finish_cell(cell, merged, requests, vectors,
              static_cast<double>(now_ns() - t0) / 1e9);
  return cell;
}

/// Handoff-mode cell: forks reconnect-enabled streaming clients, then runs
/// `driver` (the parent's SIGHUP loop — or nothing, for the steady-state
/// control) while they stream, and merges the reports.  The restart blip
/// lives in the p99/max delta between the two cells.
Cell run_handoff_cell(const std::string& endpoint, int n, int clients,
                      double seconds, const std::function<void()>& driver) {
  std::vector<pid_t> pids;
  std::vector<int> result_fds;
  int start_pipe[2];
  if (pipe(start_pipe) != 0) throw std::runtime_error("bench_ipc: pipe");
  for (int c = 0; c < clients; ++c) {
    int result_pipe[2];
    if (pipe(result_pipe) != 0) throw std::runtime_error("bench_ipc: pipe");
    const pid_t pid = fork();
    if (pid == 0) {
      close(start_pipe[1]);
      close(result_pipe[0]);
      char go;
      while (read(start_pipe[0], &go, 1) < 0 && errno == EINTR) {
      }
      ClientReport report;
      try {
        report = run_handoff_client(endpoint, n, seconds);
      } catch (...) {
        report.errors = ~std::uint64_t{0};
      }
      ssize_t written = write(result_pipe[1], &report, sizeof(report));
      (void)written;
      _exit(0);
    }
    close(result_pipe[1]);
    pids.push_back(pid);
    result_fds.push_back(result_pipe[0]);
  }
  close(start_pipe[0]);
  const std::uint64_t t0 = now_ns();
  close(start_pipe[1]);  // start gun
  if (driver) driver();

  Cell cell;
  cell.clients = clients;
  telemetry::Stats merged;
  std::uint64_t requests = 0, vectors = 0;
  for (std::size_t c = 0; c < pids.size(); ++c) {
    ClientReport report;
    std::size_t got = 0;
    while (got < sizeof(report)) {
      const ssize_t r = read(result_fds[c],
                             reinterpret_cast<char*>(&report) + got,
                             sizeof(report) - got);
      if (r <= 0) break;
      got += static_cast<std::size_t>(r);
    }
    close(result_fds[c]);
    int status = 0;
    waitpid(pids[c], &status, 0);
    if (got != sizeof(report)) {
      ++cell.errors;
      continue;
    }
    merge_report(cell, report, merged, requests, vectors);
  }
  finish_cell(cell, merged, requests, vectors,
              static_cast<double>(now_ns() - t0) / 1e9);
  return cell;
}

/// The canonical segment's takeover epoch, or 0 when unreadable — how the
/// parent detects that a SIGHUP handoff completed.
std::uint64_t probe_epoch(const std::string& endpoint) {
  try {
    const ipc::Shm probe =
        ipc::Shm::open_readonly(ipc::shm_name_for(endpoint));
    if (probe.size() < sizeof(ipc::ControlHeader)) return 0;
    const auto* header =
        static_cast<const ipc::ControlHeader*>(probe.data());
    if (header->magic != ipc::kMagic) return 0;
    return header->epoch.load(std::memory_order_acquire);
  } catch (const std::exception&) {
    return 0;  // mid-swap (name briefly absent) or not yet created
  }
}

void print_handoff_cell(const char* name, const Cell& cell) {
  std::printf(
      "%-7s clients=%-2d  %9.0f req/s  p50 %8.1f us  p99 %8.1f us  "
      "max %9.1f us  reconnects=%llu%s\n",
      name, cell.clients, cell.rps, cell.p50_us, cell.p99_us, cell.max_us,
      static_cast<unsigned long long>(cell.reconnects),
      cell.errors ? "  (errors!)" : "");
}

/// The rolling-restart blip benchmark: a supervised daemon under streaming
/// reconnect clients, N SIGHUP handoffs vs a steady-state control of the
/// same duration.  Returns the process exit code.
int run_handoff_bench(const std::string& endpoint, int n, int clients,
                      int cycles, double seconds, const std::string& wisdom,
                      const std::string& out_path) {
  const double duration = std::max(seconds * 6.0, 3.0);

  // Supervisor child first — the exact `whtd --supervise` code path.
  const pid_t supervisor = fork();
  if (supervisor == 0) {
    try {
      ipc::SupervisorOptions options;
      options.daemon.endpoint = endpoint;
      options.daemon.slots = static_cast<std::uint32_t>(clients + 2);
      options.daemon.sweep_ms = 20;
      options.daemon.drain_ms = 2000;
      options.daemon.engine.wisdom_file = wisdom;
      options.child.prewarm = !wisdom.empty();
      options.wedge_ms = 20000;
      _exit(ipc::run_supervisor(options));
    } catch (...) {
      _exit(1);
    }
  }
  if (!ipc::Client::wait_for_daemon(endpoint, 15000)) {
    std::fprintf(stderr, "bench_ipc: supervised daemon did not come up\n");
    kill(supervisor, SIGKILL);
    waitpid(supervisor, nullptr, 0);
    return 1;
  }

  const Cell steady =
      run_handoff_cell(endpoint, n, clients, duration, nullptr);
  print_handoff_cell("steady", steady);

  const auto driver = [&] {
    // Spaced so every handoff lands inside the measurement window, with
    // stream time on both sides of each.
    const auto spacing = static_cast<std::uint64_t>(
        duration * 1000.0 / static_cast<double>(cycles + 1));
    for (int cycle = 0; cycle < cycles; ++cycle) {
      std::this_thread::sleep_for(std::chrono::milliseconds(spacing));
      const std::uint64_t before = probe_epoch(endpoint);
      kill(supervisor, SIGHUP);
      const std::uint64_t give_up = now_ns() + 15000000000ULL;
      while (probe_epoch(endpoint) <= before && now_ns() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (probe_epoch(endpoint) <= before) {
        std::fprintf(stderr, "bench_ipc: handoff %d never completed\n",
                     cycle);
      }
    }
  };
  const Cell restart =
      run_handoff_cell(endpoint, n, clients, duration, driver);
  print_handoff_cell("restart", restart);
  std::printf("restart blip: p99 %+.1f us, max %+.1f us over %d handoffs\n",
              restart.p99_us - steady.p99_us, restart.max_us - steady.max_us,
              cycles);

  kill(supervisor, SIGTERM);
  int status = 0;
  waitpid(supervisor, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "bench_ipc: supervisor exited abnormally\n");
    return 1;
  }
  if (steady.nonfinite + restart.nonfinite > 0) {
    std::fprintf(stderr, "bench_ipc: FAIL served data went non-finite\n");
    return 1;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_ipc: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"ipc_handoff\",\n");
  std::fprintf(out,
               "  \"n\": %d, \"clients\": %d, \"cycles\": %d, "
               "\"seconds\": %.2f,\n",
               n, clients, cycles, duration);
  const auto cell_json = [out](const char* name, const Cell& c, bool last) {
    std::fprintf(out,
                 "  \"%s\": {\"rps\": %.1f, \"p50_us\": %.3f, "
                 "\"p99_us\": %.3f, \"max_us\": %.3f, \"errors\": %llu, "
                 "\"reconnects\": %llu},\n",
                 name, c.rps, c.p50_us, c.p99_us, c.max_us,
                 static_cast<unsigned long long>(c.errors),
                 static_cast<unsigned long long>(c.reconnects));
    (void)last;
  };
  cell_json("steady", steady, false);
  cell_json("restart", restart, false);
  std::fprintf(out, "  \"blip_p99_us\": %.3f, \"blip_max_us\": %.3f\n}\n",
               restart.p99_us - steady.p99_us,
               restart.max_us - steady.max_us);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

/// In-process Engine baseline for the same shape, one thread.
Cell run_baseline(wht::Engine& engine, const Shape& shape, double seconds) {
  std::vector<std::vector<double>> storage;
  std::vector<Staged> buffers;
  for (const auto& [n, count] : buffers_of(shape)) {
    storage.emplace_back(count << n);
    buffers.push_back({n, count, storage.back().data()});
    fill(buffers.back(), 3);
  }
  telemetry::Accumulator latency;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::size_t next = 0;
  std::uint64_t requests = 0, vectors = 0;
  const std::uint64_t t0 = now_ns();
  while (now_ns() < deadline) {
    Staged& b = buffers[next++ % buffers.size()];
    const std::uint64_t r0 = now_ns();
    if (b.count == 1) {
      engine.execute(b.n, b.data);
    } else {
      engine.execute_many(b.n, b.data, b.count);
    }
    latency.record(now_ns() - r0);
    b.transformed();
    ++requests;
    vectors += b.count;
  }
  Cell cell;
  for (const Staged& b : buffers) cell.nonfinite += b.finite() ? 0 : 1;
  finish_cell(cell, latency.snapshot(), requests, vectors,
              static_cast<double>(now_ns() - t0) / 1e9);
  return cell;
}

void print_cells(std::FILE* out, const char* name,
                 const std::vector<Cell>& cells, const Cell& baseline,
                 bool last) {
  std::fprintf(out, "  \"%s\": {\n    \"cells\": [\n", name);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(out,
                 "      {\"clients\": %d, \"rps\": %.1f, \"vps\": %.1f, "
                 "\"p50_us\": %.3f, \"p99_us\": %.3f, \"errors\": %llu}%s\n",
                 c.clients, c.rps, c.vps, c.p50_us, c.p99_us,
                 static_cast<unsigned long long>(c.errors),
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out,
               "    ],\n    \"in_process\": {\"rps\": %.1f, \"vps\": %.1f, "
               "\"p50_us\": %.3f, \"p99_us\": %.3f}\n  }%s\n",
               baseline.rps, baseline.vps, baseline.p50_us, baseline.p99_us,
               last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("endpoint", "shm endpoint (unique per run by default)", "");
  cli.add_flag("clients", "client process counts, comma-separated", "1,2,4,8");
  cli.add_flag("n", "single-vector request size (log2)", "10");
  cli.add_flag("batch-n", "batched request size (log2)", "8");
  cli.add_flag("batch", "vectors per batched request", "16");
  cli.add_flag("seconds", "measurement seconds per cell", "0.5");
  cli.add_flag("out", "output JSON path", "BENCH_ipc.json");
  cli.add_flag("handoff",
               "rolling-restart blip mode: this many SIGHUP handoffs under "
               "streaming load, vs a steady control (0 = off)",
               "0");
  cli.add_flag("wisdom", "wisdom file for successor prewarm (handoff mode)",
               "");
  if (!cli.parse(argc, argv)) return 2;

  std::string endpoint = cli.get("endpoint");
  if (endpoint.empty()) {
    endpoint = "bench-ipc-" + std::to_string(static_cast<long>(getpid()));
  }
  const std::vector<int> clients = cli.get_int_list("clients");
  const int single_n = static_cast<int>(cli.get_int("n", 10));
  const int batch_n = static_cast<int>(cli.get_int("batch-n", 8));
  const auto batch = static_cast<std::size_t>(cli.get_int("batch", 16));
  const double seconds = cli.get_double("seconds", 0.5);

  const int handoffs = static_cast<int>(cli.get_int("handoff", 0));
  if (handoffs > 0) {
    // Dedicated mode: measures what a planned rolling restart costs a
    // streaming client (the p99/max blip), not steady-state throughput.
    return run_handoff_bench(endpoint, single_n, clients.front(), handoffs,
                             seconds, cli.get("wisdom"),
                             cli.get("out", "BENCH_ipc_handoff.json"));
  }

  const Shape shapes[] = {
      {"single", single_n, 1},
      {"batch", batch_n, batch},
      {"mixed", single_n, batch},
  };

  // Daemon child first: the parent stays single-threaded for every later
  // client fork.  The life pipe's EOF (parent exit included) stops it.
  int life_pipe[2];
  if (pipe(life_pipe) != 0) {
    std::fprintf(stderr, "bench_ipc: pipe failed\n");
    return 1;
  }
  const pid_t daemon_pid = fork();
  if (daemon_pid == 0) {
    close(life_pipe[1]);
    try {
      ipc::DaemonOptions options;
      options.endpoint = endpoint;
      options.slots = static_cast<std::uint32_t>(
          *std::max_element(clients.begin(), clients.end()) + 2);
      ipc::Daemon daemon(options);
      daemon.start();
      char byte;
      while (read(life_pipe[0], &byte, 1) < 0 && errno == EINTR) {
      }
      daemon.stop();
    } catch (...) {
      _exit(1);
    }
    _exit(0);
  }
  close(life_pipe[0]);
  if (!ipc::Client::wait_for_daemon(endpoint, 10000)) {
    std::fprintf(stderr, "bench_ipc: daemon did not come up\n");
    return 1;
  }

  std::vector<std::vector<Cell>> results;
  for (const Shape& shape : shapes) {
    std::vector<Cell> cells;
    for (const int c : clients) {
      Cell cell = run_cell(endpoint, shape, c, seconds);
      std::printf(
          "%-6s clients=%-2d  %9.0f req/s  %9.0f vec/s  p50 %8.1f us  "
          "p99 %8.1f us%s\n",
          shape.name.c_str(), c, cell.rps, cell.vps, cell.p50_us, cell.p99_us,
          cell.errors ? "  (errors!)" : "");
      cells.push_back(cell);
    }
    results.push_back(std::move(cells));
  }

  close(life_pipe[1]);
  int status = 0;
  waitpid(daemon_pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "bench_ipc: daemon exited abnormally\n");
    return 1;
  }

  wht::Engine engine;
  std::vector<Cell> baselines;
  for (const Shape& shape : shapes) {
    Cell cell = run_baseline(engine, shape, seconds);
    std::printf("%-6s in-process   %9.0f req/s  %9.0f vec/s  p50 %8.1f us\n",
                shape.name.c_str(), cell.rps, cell.vps, cell.p50_us);
    baselines.push_back(cell);
  }

  const std::string out_path = cli.get("out");
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_ipc: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"ipc\",\n  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out,
               "  \"single_n\": %d, \"batch_n\": %d, "
               "\"batch_vectors\": %zu,\n",
               single_n, batch_n, batch);
  for (std::size_t s = 0; s < results.size(); ++s) {
    print_cells(out, shapes[s].name.c_str(), results[s], baselines[s],
                s + 1 == results.size());
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  std::uint64_t nonfinite = 0;
  for (const std::vector<Cell>& cells : results) {
    for (const Cell& cell : cells) nonfinite += cell.nonfinite;
  }
  for (const Cell& cell : baselines) nonfinite += cell.nonfinite;
  if (nonfinite > 0) {
    std::fprintf(stderr,
                 "bench_ipc: FAIL %llu served buffer(s) went non-finite\n",
                 static_cast<unsigned long long>(nonfinite));
    return 1;
  }
  return 0;
}
