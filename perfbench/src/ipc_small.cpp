// ipc_small: a fresh whtd daemon (ipc::Daemon with the shipped options and
// a unique endpoint) serving two forked client processes.  Each client
// repeats 4 single-vector requests at n = 10, then one batch of 16 vectors
// at n = 8, through Client::stage / submit / wait.
//
// Fork discipline: the parent never starts a thread before its last fork.
// It forks the daemon, times boot and the first response of each shape as
// a client itself, disconnects, then forks the clients.  Commands to the
// daemon child travel over a pipe: 'M' marks the start of the timed window,
// 'S' asks for its report and stops it.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "host.hpp"
#include "ipc/client.hpp"
#include "ipc/daemon.hpp"
#include "ipc/protocol.hpp"
#include "ipc/shm.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ipc = whtlab::ipc;

constexpr int kClients = 2;
constexpr int kRounds = 5;
constexpr int kSlices = 2;  ///< equal slices of each round's window
constexpr int kTraceSegments = 8;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 17;
const Step kSingle{Step::kSingle, 10, 1};
const Step kBatch{Step::kBatch, 8, 16};
constexpr int kSinglesPerCycle = 4;

/// What the daemon child reports when stopped.
struct DaemonReport {
  std::uint64_t cpu_ns = 0;        ///< over the timed window
  std::uint64_t ctx_switches = 0;  ///< over the timed window
  std::uint64_t submitted = 0;     ///< Engine::Stats, since boot
  std::uint64_t coalesced = 0;
  std::uint64_t failures = 0;
  std::uint64_t fallbacks = 0;
  double peak_rss_mb = 0.0;
  std::int32_t ok = 0;
};

/// What one client child reports; its histograms follow on the pipe.
struct ClientReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t served[2] = {0, 0};   ///< [traced segment]
  std::uint64_t vectors[2] = {0, 0};
  std::uint64_t slice_vectors[kSlices] = {};
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t spans = 0;
  std::uint64_t dropped_spans = 0;
  std::uint64_t self_bench_ns = 0;
  std::uint64_t self_ipc_ns = 0;
  std::uint64_t throttled = 0;
  std::uint64_t dropped = 0;
  std::uint64_t exec_errors = 0;
  std::int32_t ok = 0;
};

struct ClientHistograms {
  Histogram latency[kSlices];  ///< untraced round trips, per slice
  Histogram submit;      ///< traced: Client::submit
  Histogram wait;        ///< traced: Client::wait
  Histogram rtt_single;  ///< traced: submit to wait return, singles
  Histogram rtt_batch;   ///< traced: same, batches
};
static_assert(std::is_trivially_copyable_v<ClientHistograms>);

bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t w = write(fd, p, size);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    size -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t r = read(fd, p, size);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    size -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Children started by this run; any still running when it goes out of
/// scope (an error path) are killed and reaped.
class Children {
 public:
  Children() = default;
  Children(const Children&) = delete;
  Children& operator=(const Children&) = delete;
  ~Children() {
    for (const pid_t pid : pids_) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
  void add(pid_t pid) { pids_.push_back(pid); }
  /// Waits for `pid`; true when it exited with status 0.
  bool reap(pid_t pid) {
    pids_.erase(std::remove(pids_.begin(), pids_.end(), pid), pids_.end());
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::vector<pid_t> pids_;
};

[[noreturn]] void daemon_child(const std::string& endpoint, int commands,
                               int replies) {
  int code = 0;
  try {
    ipc::DaemonOptions options;
    options.endpoint = endpoint;
    ipc::Daemon daemon(options);
    daemon.start();
    Usage mark;
    char command = 0;
    while (read_all(commands, &command, 1)) {
      if (command == 'M') {
        mark = self_usage();
        write_all(replies, "A", 1);
      } else if (command == 'S') {
        const Usage now = self_usage();
        const wht::Engine::Stats stats = daemon.engine().stats();
        DaemonReport report;
        report.cpu_ns = now.cpu_ns - mark.cpu_ns;
        report.ctx_switches = now.ctx_switches - mark.ctx_switches;
        report.submitted = stats.submitted;
        report.coalesced = stats.coalesced;
        report.failures = stats.failures;
        report.fallbacks = stats.fallbacks;
        report.peak_rss_mb = self_peak_rss_mb();
        daemon.stop();
        report.ok = 1;
        write_all(replies, &report, sizeof(report));
        break;
      }
    }
    daemon.stop();  // idempotent; also the path for a parent that died
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: daemon: %s\n", e.what());
    code = 1;
  }
  _exit(code);
}

/// One verified staged request in a client's arena.
struct Staged {
  Step step;
  Vectors vectors;
};

/// The client child's closed loop.  Writes 'R' once connected and staged,
/// waits for the start gun (EOF on `gun`), then serves for `window_ns`.
ClientReport client_loop(const std::string& endpoint, ExpectedCache& cache,
                         int index, int gun, int out, std::uint64_t window_ns,
                         bool trace, ClientHistograms& h, Tracer* tracer,
                         bool& ready_sent) {
  ClientReport report;
  auto client = ipc::Client::connect({.endpoint = endpoint});
  std::vector<Staged> cycle;
  for (int i = 0; i <= kSinglesPerCycle; ++i) {
    const Step& step = i < kSinglesPerCycle ? kSingle : kBatch;
    std::vector<std::shared_ptr<const Expected>> expected;
    for (std::size_t v = 0; v < step.count; ++v) {
      expected.push_back(cache.get(
          step.n, (static_cast<std::uint64_t>(index) * 64 + i) * 64 + v));
    }
    double* data = client.stage(step.n, step.count);
    cycle.push_back({step, Vectors(std::move(expected), data)});
  }
  ready_sent = write_all(out, "R", 1);
  char byte;
  while (read(gun, &byte, 1) < 0 && errno == EINTR) {
  }

  const Usage u0 = self_usage();
  report.start_ns = now_ns();
  const std::uint64_t end = report.start_ns + window_ns;
  const std::uint64_t segment_ns = window_ns / kTraceSegments;
  const std::uint64_t slice_ns = window_ns / kSlices;
  std::uint64_t id = 0;
  for (std::size_t i = 0;; ++i) {
    const std::uint64_t now = now_ns();
    if (now >= end) break;
    const int traced =
        trace && ((now - report.start_ns) / segment_ns) % 2 == 1 ? 1 : 0;
    Tracer* t = traced ? tracer : nullptr;
    Staged& s = cycle[i % cycle.size()];
    ++report.attempted;
    ++id;
    const ScopedSpan root(t, "bench.request", -1, id);
    ipc::Client::Ticket ticket;
    const std::uint64_t t0 = now_ns();
    ipc::Status status;
    {
      const ScopedSpan span(t, "ipc.submit", root.index(), id);
      status = client.submit(s.step.n, s.vectors.data(), s.step.count, ticket);
    }
    const std::uint64_t t1 = now_ns();
    if (status == ipc::Status::kOk) {
      const ScopedSpan span(t, "ipc.wait", root.index(), id);
      status = client.wait(ticket);
    }
    const std::uint64_t t2 = now_ns();
    if (status != ipc::Status::kOk) {
      ++report.failed;
      s.vectors.reset();
      continue;
    }
    if (traced) {
      h.submit.record(t1 - t0);
      h.wait.record(t2 - t1);
      (s.step.count == 1 ? h.rtt_single : h.rtt_batch).record(t2 - t0);
    }
    const auto slice = std::min<std::uint64_t>(
        (t0 - report.start_ns) / slice_ns, kSlices - 1);
    if (!traced) h.latency[slice].record(t2 - t0);
    report.slice_vectors[slice] += s.step.count;
    if (!s.vectors.check()) ++report.mismatches;
    ++report.served[traced];
    report.vectors[traced] += s.step.count;
  }
  report.end_ns = now_ns();
  const Usage u1 = self_usage();
  report.cpu_ns = u1.cpu_ns - u0.cpu_ns;
  report.ctx_switches = u1.ctx_switches - u0.ctx_switches;
  const ipc::Client::DaemonStats stats = client.stats();
  report.throttled = stats.throttled;
  report.dropped = stats.dropped;
  report.exec_errors = stats.exec_errors;
  if (tracer != nullptr) {
    report.spans = tracer->spans().size();
    report.dropped_spans = tracer->dropped();
    const auto self = layer_self_ns(tracer->spans());
    const auto get = [&](const char* layer) {
      const auto it = self.find(layer);
      return it == self.end() ? std::uint64_t{0} : it->second;
    };
    report.self_bench_ns = get("bench");
    report.self_ipc_ns = get("ipc");
  }
  report.ok = 1;
  return report;
}

[[noreturn]] void client_child(const std::string& endpoint,
                               ExpectedCache& cache, int index, int gun,
                               int out, std::uint64_t window_ns,
                               const RunOptions& options) {
  auto h = std::make_unique<ClientHistograms>();
  std::unique_ptr<Tracer> tracer;
  if (options.trace) tracer = std::make_unique<Tracer>(kSpanCapacity);
  ClientReport report;
  bool ready_sent = false;
  try {
    report = client_loop(endpoint, cache, index, gun, out, window_ns,
                         options.trace, *h, tracer.get(), ready_sent);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: client %d: %s\n", index, e.what());
  }
  if (!ready_sent) write_all(out, "R", 1);  // never leave the parent waiting
  if (tracer != nullptr) {
    Report unused;
    write_traces(unused, options, {tracer.get()});
  }
  const bool sent = write_all(out, &report, sizeof(report)) &&
                    write_all(out, h.get(), sizeof(*h));
  _exit(sent && report.ok ? 0 : 1);
}

/// Stats-page view of the daemon's n = 10 series.
struct PageView {
  double exec_cycles_weighted = 0.0;  ///< sum of count * mean, n = 10
  std::uint64_t runs = 0;             ///< observations at n = 10
  std::uint64_t batch_runs = 0;       ///< of which on the batch path
};

bool read_stats_page(const std::string& endpoint, PageView& view) {
  try {
    const ipc::Shm shm =
        ipc::Shm::open_readonly(ipc::stats_shm_name_for(endpoint));
    if (shm.size() < sizeof(ipc::StatsPage)) return false;
    const auto* shared = static_cast<const ipc::StatsPage*>(shm.data());
    if (shared->header.magic != ipc::kStatsMagic) return false;
    auto page = std::make_unique<ipc::StatsPage>();
    if (!ipc::stats_read(*shared, *page)) return false;
    const std::uint32_t count =
        std::min(page->header.series_count, ipc::kStatsSeriesCapacity);
    for (std::uint32_t i = 0; i < count; ++i) {
      const ipc::StatsSeries& s = page->series[i];
      if (s.n != kSingle.n) continue;
      view.exec_cycles_weighted += static_cast<double>(s.count) * s.mean;
      view.runs += s.count;
      if (s.batch != 0) view.batch_runs += s.count;
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Everything one round measured.
struct Round {
  double boot_s = 0.0;
  double setup_s = 0.0;
  double vps = 0.0;
  double cpu_us_per_vector = 0.0;
  double p50_us = 0.0;
  std::vector<Histogram> latency;  ///< per slice, both clients
  std::vector<double> slice_vps;
  DaemonReport daemon;
  PageView page;
  std::vector<ClientReport> clients;
};

/// One fresh daemon: boot, first responses, timed window, stop, leak check.
/// Fills `round` and merges the clients' traced-call histograms into `h`;
/// returns an error message, empty on success.
std::string run_round(const RunOptions& options, const std::string& endpoint,
                      ExpectedCache& cache, std::uint64_t window_ns,
                      Report& report, Round& round, ClientHistograms& h) {
  Children children;
  int commands[2], replies[2];
  if (pipe(commands) != 0 || pipe(replies) != 0) return "pipe failed";

  const std::uint64_t t0 = now_ns();
  const pid_t daemon = fork();
  if (daemon < 0) return "fork failed";
  if (daemon == 0) {
    close(commands[1]);
    close(replies[0]);
    daemon_child(endpoint, commands[0], replies[1]);
  }
  children.add(daemon);
  close(commands[0]);
  close(replies[1]);
  struct Fds {
    int a, b;
    ~Fds() {
      close(a);
      close(b);
    }
  } fds{commands[1], replies[0]};

  if (!ipc::Client::wait_for_daemon(endpoint, 10000)) {
    return "daemon did not come up";
  }
  round.boot_s = ns_to_s(now_ns() - t0);
  {
    // Set-up ends at the first served response of every request shape.
    auto client = ipc::Client::connect({.endpoint = endpoint});
    std::vector<Staged> firsts;
    for (const Step& step : {kSingle, kBatch}) {
      std::vector<std::shared_ptr<const Expected>> expected;
      for (std::size_t v = 0; v < step.count; ++v) {
        expected.push_back(cache.get(step.n, 999 * 64 + v));
      }
      double* data = client.stage(step.n, step.count);
      firsts.push_back({step, Vectors(std::move(expected), data)});
    }
    for (Staged& s : firsts) {
      ++report.attempted;
      if (client.transform(s.step.n, s.vectors.data(), s.step.count) !=
          ipc::Status::kOk) {
        ++report.failed;
        return "set-up request failed";
      }
    }
    round.setup_s = ns_to_s(now_ns() - t0);
    for (Staged& s : firsts) {
      if (!s.vectors.check()) ++report.mismatches;
    }
  }

  int gun[2];
  if (pipe(gun) != 0) return "pipe failed";
  std::vector<pid_t> clients;
  std::vector<int> outs;
  for (int c = 0; c < kClients; ++c) {
    int out[2];
    if (pipe(out) != 0) return "pipe failed";
    const pid_t pid = fork();
    if (pid < 0) return "fork failed";
    if (pid == 0) {
      close(gun[1]);
      close(out[0]);
      close(commands[1]);
      close(replies[0]);
      client_child(endpoint, cache, c, gun[0], out[1], window_ns, options);
    }
    children.add(pid);
    clients.push_back(pid);
    close(out[1]);
    outs.push_back(out[0]);
  }
  close(gun[0]);
  std::string error;
  for (const int fd : outs) {
    char ready = 0;
    if (!read_all(fd, &ready, 1)) error = "client did not get ready";
  }
  char ack = 0;
  if (!write_all(commands[1], "M", 1) || !read_all(replies[0], &ack, 1)) {
    error = "daemon did not acknowledge the window";
  }
  const Usage u0 = self_usage();
  close(gun[1]);  // EOF: the start gun for every client at once

  std::uint64_t vectors = 0, start = ~std::uint64_t{0}, end = 0;
  std::uint64_t client_cpu = 0;
  round.latency.resize(kSlices);
  round.slice_vps.assign(kSlices, 0.0);
  const double slice_s = ns_to_s(window_ns) / kSlices;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    ClientReport r;
    auto ch = std::make_unique<ClientHistograms>();
    const bool got = read_all(outs[c], &r, sizeof(r)) &&
                     read_all(outs[c], ch.get(), sizeof(*ch));
    close(outs[c]);
    const bool exited = children.reap(clients[c]);
    if (!got || !exited || !r.ok) {
      error = "client " + std::to_string(c) + " failed";
      continue;
    }
    for (int i = 0; i < kSlices; ++i) {
      round.latency[i].merge(ch->latency[i]);
      round.slice_vps[i] += static_cast<double>(r.slice_vectors[i]) / slice_s;
    }
    h.submit.merge(ch->submit);
    h.wait.merge(ch->wait);
    h.rtt_single.merge(ch->rtt_single);
    h.rtt_batch.merge(ch->rtt_batch);
    vectors += r.vectors[0] + r.vectors[1];
    start = std::min(start, r.start_ns);
    end = std::max(end, r.end_ns);
    client_cpu += r.cpu_ns;
    round.clients.push_back(r);
  }
  const Usage u1 = self_usage();
  read_stats_page(endpoint, round.page);

  if (!write_all(commands[1], "S", 1) ||
      !read_all(replies[0], &round.daemon, sizeof(round.daemon)) ||
      !round.daemon.ok) {
    error = "daemon did not report";
  }
  if (!children.reap(daemon)) error = "daemon exited abnormally";
  const std::string leftovers = shm_leftovers("whtlab." + endpoint);
  if (!leftovers.empty()) error = "shared memory left behind: " + leftovers;
  if (!error.empty()) return error;

  if (vectors == 0 || end <= start) return "no vectors served";
  round.vps = static_cast<double>(vectors) / ns_to_s(end - start);
  round.p50_us = median_percentile(round.latency, 0.50).value / 1e3;
  round.cpu_us_per_vector =
      static_cast<double>(client_cpu + round.daemon.cpu_ns +
                          (u1.cpu_ns - u0.cpu_ns)) /
      1000.0 / static_cast<double>(vectors);
  return "";
}

}  // namespace

Report run_ipc_small(const RunOptions& options) {
  Report report;
  ExpectedCache cache(options.seed);
  // Build every expected state before forking, so children share them.
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i <= kSinglesPerCycle; ++i) {
      const Step& step = i < kSinglesPerCycle ? kSingle : kBatch;
      for (std::size_t v = 0; v < step.count; ++v) {
        cache.get(step.n, (static_cast<std::uint64_t>(c) * 64 + i) * 64 + v);
      }
    }
  }
  for (const Step& step : {kSingle, kBatch}) {
    for (std::size_t v = 0; v < step.count; ++v) cache.get(step.n, 999 * 64 + v);
  }

  const auto window_ns =
      static_cast<std::uint64_t>(options.seconds * 1e9 / kRounds);
  const std::string base = "perfbench-" +
                           std::to_string(static_cast<long>(getpid())) + "-" +
                           std::to_string(options.seed);
  auto h = std::make_unique<ClientHistograms>();
  std::vector<Round> rounds(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    const std::string error =
        run_round(options, base + "-r" + std::to_string(r), cache, window_ns,
                  report, rounds[static_cast<std::size_t>(r)], *h);
    if (!error.empty()) {
      // The round's children are reaped; remove what a killed daemon left.
      const std::string endpoint = base + "-r" + std::to_string(r);
      ipc::Shm::unlink(ipc::shm_name_for(endpoint));
      ipc::Shm::unlink(ipc::stats_shm_name_for(endpoint));
      report.error = "round " + std::to_string(r) + ": " + error;
      return report;
    }
  }

  std::vector<double> setup_s, boot_s, vps, cpu, rss;
  std::vector<Histogram> latency;
  std::uint64_t requests = 0, segment_vectors[2] = {0, 0}, traced_requests = 0;
  std::uint64_t ctx = 0, daemon_cpu = 0, spans = 0, dropped_spans = 0;
  std::uint64_t throttled = 0, dropped = 0, exec_errors = 0;
  std::uint64_t submitted = 0, coalesced = 0, failures = 0, fallbacks = 0;
  std::map<std::string, std::uint64_t> self_ns;
  PageView page;
  for (const Round& round : rounds) {
    setup_s.push_back(round.setup_s);
    boot_s.push_back(round.boot_s);
    vps.insert(vps.end(), round.slice_vps.begin(), round.slice_vps.end());
    latency.insert(latency.end(), round.latency.begin(), round.latency.end());
    cpu.push_back(round.cpu_us_per_vector);
    rss.push_back(round.daemon.peak_rss_mb);
    ctx += round.daemon.ctx_switches;
    daemon_cpu += round.daemon.cpu_ns;
    submitted += round.daemon.submitted;
    coalesced += round.daemon.coalesced;
    failures += round.daemon.failures;
    fallbacks += round.daemon.fallbacks;
    page.exec_cycles_weighted += round.page.exec_cycles_weighted;
    page.runs += round.page.runs;
    page.batch_runs += round.page.batch_runs;
    for (const ClientReport& c : round.clients) {
      report.attempted += c.attempted;
      report.failed += c.failed;
      report.mismatches += c.mismatches;
      requests += c.served[0] + c.served[1];
      segment_vectors[0] += c.vectors[0];
      segment_vectors[1] += c.vectors[1];
      traced_requests += c.served[1];
      ctx += c.ctx_switches;
      spans += c.spans;
      dropped_spans += c.dropped_spans;
      self_ns["bench"] += c.self_bench_ns;
      self_ns["ipc"] += c.self_ipc_ns;
      throttled += c.throttled;
      dropped += c.dropped;
      exec_errors += c.exec_errors;
    }
  }
  char detail[200];
  std::snprintf(detail, sizeof(detail),
                "\"rounds\": %d, \"window_s\": %.3f, \"slices\": %d, "
                "\"clients\": %d",
                kRounds, ns_to_s(window_ns), kRounds * kSlices, kClients);
  report.details.emplace_back(detail);
  std::string per_round = "\"per_round\": [";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    std::snprintf(detail, sizeof(detail),
                  "%s{\"setup_s\": %.6f, \"vectors_per_s\": %.1f, "
                  "\"p50_us\": %.3f}",
                  i == 0 ? "" : ", ", rounds[i].setup_s, rounds[i].vps,
                  rounds[i].p50_us);
    per_round += detail;
  }
  report.details.push_back(per_round + "]");

  if (!options.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("vectors_per_s", median(vps), "1/s");
    report.add_percentile("p50_us", median_percentile(latency, 0.50), 1e-3,
                          "us");
    report.print_percentile("p99_us", median_percentile(latency, 0.99), 1e-3,
                            "us");
    report.add("cpu_us_per_vector", median(cpu), "us");
    report.add("peak_rss_mb", median(rss), "MiB");
    return report;
  }

  // Per-layer probes on an in-process Engine at this workload's shapes,
  // after the last fork (the Engine may start threads).
  Tracer probe_tracer(kSpanCapacity);
  {
    ProbeResults probes;
    const wht::EngineOptions engine_options;
    wht::Engine engine(engine_options);
    probes.first_touch_s.push_back(
        first_touch_s(engine, {kSingle, kBatch}, &probe_tracer));
    const auto twin = make_twin(engine, engine_options, kSingle);
    Prober prober(engine, *twin, kSingle, kBatch, cache, probes);
    const std::uint64_t until = now_ns() + window_ns / 4;
    for (std::uint64_t id = 1; now_ns() < until; ++id) {
      prober.step(&probe_tracer, id);
    }
    add_probe_metrics(report, probes, kSingle, kBatch, engine_options.threads,
                      &probe_tracer);
  }
  report.add("engine.coalesced_frac",
             submitted == 0 ? 0.0
                            : static_cast<double>(coalesced) /
                                  static_cast<double>(submitted),
             "ratio");
  report.add("engine.failures", static_cast<double>(failures), "count");
  report.add("engine.fallbacks", static_cast<double>(fallbacks), "count");

  report.add("ipc.boot_s", median(boot_s), "s");
  report.add_percentile("ipc.submit_us", h->submit.percentile(0.50), 1e-3,
                        "us");
  report.add_percentile("ipc.wait_us", h->wait.percentile(0.50), 1e-3, "us");
  report.add_percentile("ipc.wait_p99_us", h->wait.percentile(0.99), 1e-3,
                        "us");
  report.add_percentile("ipc.single_rtt_us", h->rtt_single.percentile(0.50),
                        1e-3, "us");
  report.add_percentile("ipc.batch_rtt_us", h->rtt_batch.percentile(0.50),
                        1e-3, "us");
  report.add("ipc.daemon_exec_cycles",
             page.runs == 0 ? 0.0
                            : page.exec_cycles_weighted /
                                  static_cast<double>(page.runs),
             "cycles");
  report.add("ipc.merged_run_frac",
             page.runs == 0 ? 0.0
                            : static_cast<double>(page.batch_runs) /
                                  static_cast<double>(page.runs),
             "ratio");
  const double per_req = requests == 0 ? 0.0 : 1.0 / static_cast<double>(requests);
  report.add("ipc.ctx_switches_per_req", static_cast<double>(ctx) * per_req,
             "count");
  report.add("ipc.daemon_cpu_us_per_req",
             static_cast<double>(daemon_cpu) / 1000.0 * per_req, "us");
  report.add("ipc.throttled", static_cast<double>(throttled), "count");
  report.add("ipc.dropped", static_cast<double>(dropped), "count");
  report.add("ipc.exec_errors", static_cast<double>(exec_errors), "count");

  add_trace_metrics(report, spans + probe_tracer.spans().size(), dropped_spans,
                    segment_vectors, self_ns, traced_requests);
  write_traces(report, options, {&probe_tracer});
  return report;
}

}  // namespace perfbench
