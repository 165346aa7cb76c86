// bench_serve — concurrent serving throughput driver (writes BENCH_serve.json).
//
// Hammer one shared wht::Engine from T client threads and count transforms
// served per second — the production shape the concurrent-serving redesign
// targets: immutable shared plans, re-entrant backends, serve-time backend
// arbitration, and submit().  Seven sections:
//
//   decisions  the arbiter's backend choice (and every candidate's priced
//              cost) per request shape — single vectors across the n range
//              and tiny-n batches; the committed JSON documents the shape
//              sensitivity ("fused" big singles, "simd" tiny batches)
//   single     homogeneous single-vector serving at --gate-n: requests/sec
//              vs client threads (the CI scaling gate's shape)
//   sync       the same synchronous singles at the three small sizes
//              around --coalesce-n, where per-request overhead (locks,
//              dispatch, telemetry) rather than the kernel sets the rate
//   small      one client's synchronous singles at n = 1..6, each with
//              the backend it routes to: the sizes where the Engine's own
//              cost rivals the transform's, and where "simd" runs the
//              generated codelet on a whole-vector leaf
//   engine_minus_raw  per size of the sync section, one client's
//              Engine::execute against the arbitrated backend's
//              Transform::execute on a caller-owned context, in paired
//              rounds: what the Engine layer adds per request, in ns
//   mixed      each client cycles through one single at every 4th n in
//              [--nmin, --nmax], then one batch of --batch vectors at
//              --coalesce-n
//   coalesce   submit() pipelines vs the same load as synchronous singles
//
// Every section transforms the same buffers in place for seconds.  Since
// H·H = 2^n·I, each buffer gets the exact 2^-n rescale after every second
// transform, so the data stays finite; the run exits nonzero if any buffer
// is non-finite at the end.  The rescale runs inside the timed loops, so
// every cell pays one extra pass over the data per two requests.
//
// Noise convention (README): every cell is the best of --reps runs (we
// measure capacity, so the max is the statistic — interference only ever
// subtracts).  --assert-scaling R exits nonzero unless single-shape
// throughput at --assert-threads clients is >= R x the 1-client value:
// meaningless on single-core hosts, so the CI job (multi-core runners)
// owns the gate.  --assert-submit-ratio R exits nonzero unless the
// 1-client coalesce cell's submit rate is >= R x its sync rate, which a
// thread hop or a batching window on the submit() path fails.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/wht.hpp"
#include "simd/cpu_features.hpp"
#include "stats/descriptive.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace whtlab;

using util::random_vector;

/// One buffer the bench transforms in place over and over.  H·H = 2^n·I,
/// so every second transform is followed by the exact 2^-n rescale (a
/// power of two, so no rounding), which keeps the data finite for any
/// number of calls.  `vectors` back-to-back vectors of 2^n doubles.
class Buffer {
 public:
  Buffer(int n, std::size_t vectors, std::uint64_t seed)
      : data_(random_vector((std::uint64_t{1} << n) * vectors, seed)),
        scale_(std::ldexp(1.0, -n)) {}

  double* data() { return data_.data(); }

  /// Call after each in-place transform of the whole buffer.
  void transformed() {
    if (++calls_ % 2 != 0) return;
    for (double& v : data_) v *= scale_;
  }

  bool finite() const {
    return std::all_of(data_.begin(), data_.end(),
                       [](double v) { return std::isfinite(v); });
  }

 private:
  std::vector<double> data_;
  double scale_;
  std::uint64_t calls_ = 0;
};

/// Runs `clients` threads against `work` for ~`seconds`; returns vectors/s.
/// `work(tid)` serves one unit and returns the vectors it served.
template <typename WorkFn>
double throughput(int clients, double seconds, const WorkFn& work) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int t = 0; t < clients; ++t) {
    pool.emplace_back([&, t]() {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        local += work(t);
      }
      served.fetch_add(local);
    });
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : pool) thread.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(served.load()) / elapsed;
}

template <typename WorkFn>
double best_throughput(int clients, double seconds, int reps,
                       const WorkFn& work) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    best = std::max(best, throughput(clients, seconds, work));
  }
  return best;
}

struct ShapeDecision {
  int n = 0;
  std::size_t count = 0;
  wht::Engine::Decision decision;
};

/// One sync-section size: requests/sec per client-thread count.
struct SyncCell {
  int n = 0;
  std::vector<double> rps;
};

/// One small-section size: one client's requests/sec and the backend the
/// arbiter routes its singles to.
struct SmallCell {
  int n = 0;
  std::string backend;
  double rps = 0.0;
};

/// engine_minus_raw cell: per-request ns of the two arms, each the median
/// over rounds, and the median of the per-round differences.
struct EngineMinusRaw {
  int n = 0;
  std::string backend;  ///< the arbitrated single-vector backend
  double engine_ns = 0.0;
  double raw_ns = 0.0;
  double diff_ns = 0.0;
};

/// --telemetry-overhead cell: the same single-vector workload through two
/// fresh engines, telemetry on vs off.
struct TelemetryOverhead {
  bool measured = false;
  int n = 0;
  double on_rps = 0.0;   ///< best round, telemetry on
  double off_rps = 0.0;  ///< best round, telemetry off
  /// Per-round paired overheads, percent (on and off windows back-to-back).
  std::vector<double> round_pcts;
  /// Median of the paired per-round ratios: each round's on/off windows run
  /// back-to-back and share the host's noise, so their ratio cancels drift
  /// that a best-of-on vs best-of-off comparison re-introduces.  Positive =
  /// recording costs throughput; sub-noise values go negative.
  double overhead_pct() const {
    if (round_pcts.empty()) {
      return off_rps > 0.0 ? (off_rps - on_rps) / off_rps * 100.0 : 0.0;
    }
    return stats::median(round_pcts);
  }
};

void print_json(std::FILE* out, const std::vector<ShapeDecision>& decisions,
                const std::vector<int>& threads, int gate_n,
                const std::vector<double>& single_rps,
                const std::vector<SyncCell>& sync,
                const std::vector<SmallCell>& small,
                const std::vector<EngineMinusRaw>& minus_raw,
                const std::vector<double>& mixed_rps, int coalesce_n,
                const std::vector<double>& coalesce_rps,
                const std::vector<double>& sync_rps,
                const TelemetryOverhead& overhead,
                const wht::Engine::Stats& stats) {
  std::fprintf(out, "{\n  \"bench\": \"serve\",\n");
  std::fprintf(out, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"simd_level\": \"%s\",\n",
               simd::to_string(simd::active_level()));
  std::fprintf(out, "  \"decisions\": [\n");
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const auto& shape = decisions[i];
    std::fprintf(out,
                 "    {\"n\": %d, \"count\": %zu, \"backend\": \"%s\", "
                 "\"candidates\": [",
                 shape.n, shape.count, shape.decision.backend.c_str());
    for (std::size_t c = 0; c < shape.decision.candidates.size(); ++c) {
      const auto& candidate = shape.decision.candidates[c];
      std::fprintf(out, "%s{\"backend\": \"%s\", \"cost\": %.6g}",
                   c ? ", " : "", candidate.backend.c_str(), candidate.cost);
    }
    std::fprintf(out, "]}%s\n", i + 1 < decisions.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");

  const auto print_series = [out](const char* name,
                                  const std::vector<double>& values) {
    std::fprintf(out, "\"%s\": [", name);
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::fprintf(out, "%s%.1f", i ? ", " : "", values[i]);
    }
    std::fprintf(out, "]");
  };
  std::fprintf(out, "  \"threads\": [");
  for (std::size_t i = 0; i < threads.size(); ++i) {
    std::fprintf(out, "%s%d", i ? ", " : "", threads[i]);
  }
  std::fprintf(out, "],\n");
  std::fprintf(out, "  \"single\": {\"n\": %d, ", gate_n);
  print_series("rps", single_rps);
  std::fprintf(out, "},\n  \"sync\": [");
  for (std::size_t i = 0; i < sync.size(); ++i) {
    std::fprintf(out, "%s\n    {\"n\": %d, ", i ? "," : "", sync[i].n);
    print_series("rps", sync[i].rps);
    std::fprintf(out, "}");
  }
  std::fprintf(out, "\n  ],\n  \"small\": [");
  for (std::size_t i = 0; i < small.size(); ++i) {
    std::fprintf(out, "%s\n    {\"n\": %d, \"backend\": \"%s\", \"rps\": %.1f}",
                 i ? "," : "", small[i].n, small[i].backend.c_str(),
                 small[i].rps);
  }
  std::fprintf(out, "\n  ],\n  \"engine_minus_raw\": [");
  for (std::size_t i = 0; i < minus_raw.size(); ++i) {
    const EngineMinusRaw& cell = minus_raw[i];
    std::fprintf(out,
                 "%s\n    {\"n\": %d, \"backend\": \"%s\", \"engine_ns\": "
                 "%.1f, \"raw_ns\": %.1f, \"diff_ns\": %.1f}",
                 i ? "," : "", cell.n, cell.backend.c_str(), cell.engine_ns,
                 cell.raw_ns, cell.diff_ns);
  }
  std::fprintf(out, "\n  ],\n  \"mixed\": {");
  print_series("rps", mixed_rps);
  std::fprintf(out, "},\n  \"coalesce\": {\"n\": %d, ", coalesce_n);
  print_series("submit_rps", coalesce_rps);
  std::fprintf(out, ", ");
  print_series("sync_rps", sync_rps);
  if (overhead.measured) {
    std::fprintf(out,
                 "},\n  \"telemetry_overhead\": {\"n\": %d, \"on_rps\": %.1f, "
                 "\"off_rps\": %.1f, \"overhead_pct\": %.2f",
                 overhead.n, overhead.on_rps, overhead.off_rps,
                 overhead.overhead_pct());
  }
  std::fprintf(out,
               "},\n  \"engine_stats\": {\"vectors\": %llu, \"batches\": "
               "%llu}\n}\n",
               static_cast<unsigned long long>(stats.vectors),
               static_cast<unsigned long long>(stats.batches));
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("threads", "client thread counts, comma-separated", "1,2,4,8");
  cli.add_flag("nmin", "smallest mixed-workload transform (log2)", "10");
  cli.add_flag("nmax", "largest mixed-workload transform (log2)", "22");
  cli.add_flag("gate-n", "single-shape section size (log2)", "10");
  cli.add_flag("coalesce-n", "coalescing section size (log2)", "8");
  cli.add_flag("batch", "vectors per batched mixed request", "16");
  cli.add_flag("pipeline", "in-flight submits per client", "8");
  cli.add_flag("seconds", "measurement seconds per cell", "0.25");
  cli.add_flag("reps", "repetitions per cell (best-of)", "3");
  cli.add_flag("strategy", "planning strategy (estimate/anneal/...)",
               "estimate");
  cli.add_flag("wisdom", "wisdom file for first-touch plans", "");
  cli.add_flag("out", "output JSON path", "BENCH_serve.json");
  cli.add_flag("assert-scaling", "min rps ratio at --assert-threads vs 1", "0");
  cli.add_flag("assert-threads", "client count the scaling gate checks", "4");
  cli.add_flag("assert-submit-ratio",
               "min 1-client coalesce submit/sync rps ratio (0 = off)", "0");
  cli.add_bool("telemetry-overhead",
               "measure single-shape rps with telemetry on vs off");
  cli.add_flag("overhead-n",
               "transform size for the telemetry-overhead cell", "12");
  cli.add_flag("assert-overhead-pct",
               "fail when telemetry overhead exceeds this percent (0 = off)",
               "0");
  if (!cli.parse(argc, argv)) return 2;

  const std::vector<int> threads = cli.get_int_list("threads");
  const int nmin = static_cast<int>(cli.get_int("nmin", 10));
  const int nmax = static_cast<int>(cli.get_int("nmax", 22));
  const int gate_n = static_cast<int>(cli.get_int("gate-n", 10));
  const int coalesce_n = static_cast<int>(cli.get_int("coalesce-n", 8));
  const std::size_t batch = static_cast<std::size_t>(cli.get_int("batch", 16));
  const int pipeline = static_cast<int>(cli.get_int("pipeline", 8));
  const double seconds = cli.get_double("seconds", 0.25);
  const int reps = static_cast<int>(cli.get_int("reps", 3));

  wht::EngineOptions options;
  options.strategy = wht::strategy_from_string(cli.get("strategy"));
  options.wisdom_file = cli.get("wisdom");
  wht::Engine engine(options);
  bool finite = true;  ///< every transformed buffer ended finite
  const auto check_finite = [&finite](const char* section, int clients,
                                      const Buffer& buffer) {
    if (buffer.finite()) return;
    std::fprintf(stderr, "bench_serve: non-finite data after %s clients=%d\n",
                 section, clients);
    finite = false;
  };

  // --- decisions: price the request shapes (also pays planning + anchors
  // up front so the timed sections serve from warm caches) -----------------
  std::vector<int> small_sizes;  ///< batch decisions, sync, engine_minus_raw
  for (const int n : {coalesce_n - 2, coalesce_n, coalesce_n + 2}) {
    if (n >= 2) small_sizes.push_back(n);
  }
  std::vector<ShapeDecision> decisions;
  for (int n = nmin; n <= nmax; n += 4) {
    decisions.push_back({n, 1, engine.arbitrate(n, 1)});
  }
  for (const int n : small_sizes) {
    decisions.push_back({n, batch, engine.arbitrate(n, batch)});
  }
  decisions.push_back({gate_n, 1, engine.arbitrate(gate_n, 1)});
  std::printf("%6s %6s %12s   candidates\n", "n", "count", "backend");
  for (const auto& shape : decisions) {
    std::printf("%6d %6zu %12s  ", shape.n, shape.count,
                shape.decision.backend.c_str());
    for (const auto& candidate : shape.decision.candidates) {
      std::printf(" %s=%.3g", candidate.backend.c_str(), candidate.cost);
    }
    std::printf("\n");
  }

  // Synchronous execute() singles at n from t clients, each on its own
  // buffer: the single and sync sections, and coalesce's sync half.
  const auto sync_singles = [&](const char* section, int n, int t) {
    std::vector<Buffer> buffers;
    for (int i = 0; i < t; ++i) buffers.emplace_back(n, 1, 10 + i);
    const double rps = best_throughput(
        t, seconds, reps, [&engine, &buffers, n](int tid) {
          Buffer& buffer = buffers[static_cast<std::size_t>(tid)];
          engine.execute(n, buffer.data());
          buffer.transformed();
          return std::uint64_t{1};
        });
    for (const Buffer& buffer : buffers) check_finite(section, t, buffer);
    return rps;
  };

  // --- single: the scaling-gate shape -------------------------------------
  std::vector<double> single_rps;
  for (const int t : threads) {
    single_rps.push_back(sync_singles("single", gate_n, t));
    std::printf("single  n=%-3d clients=%-2d  %10.0f req/s\n", gate_n, t,
                single_rps.back());
  }

  // --- sync: small-n singles, where per-request overhead sets the rate ----
  std::vector<SyncCell> sync;
  for (const int n : small_sizes) {
    sync.push_back({n, {}});
    for (const int t : threads) {
      sync.back().rps.push_back(sync_singles("sync", n, t));
      std::printf("sync    n=%-3d clients=%-2d  %10.0f req/s\n", n, t,
                  sync.back().rps.back());
    }
  }

  // --- small: one client's singles at n = 1..6 -----------------------------
  std::vector<SmallCell> small;
  for (int n = 1; n <= 6; ++n) {
    // Routed (and first-touched) before the timed windows.
    small.push_back({n, engine.arbitrate(n, 1).backend, 0.0});
    small.back().rps = sync_singles("small", n, 1);
    std::printf("small   n=%-3d backend=%-10s %10.0f req/s\n", n,
                small.back().backend.c_str(), small.back().rps);
  }

  // --- engine_minus_raw: what the Engine adds per request ----------------
  // One client, paired rounds as in the telemetry cell below: each round
  // times both arms back to back, alternating which goes first, so they
  // share the round's noise.  Both arms pay the same buffer rescale, which
  // the difference cancels.
  std::vector<EngineMinusRaw> minus_raw;
  for (const int n : small_sizes) {
    EngineMinusRaw cell;
    cell.n = n;
    cell.backend = engine.arbitrate(n, 1).backend;
    const auto raw = engine.transform(n, cell.backend);
    wht::ExecContext ctx;  // caller-owned, as a serving loop holds one
    Buffer buffer(n, 1, 50);
    const auto ns_per_request = [&](bool through_engine) {
      const double rps =
          throughput(1, std::min(seconds, 0.05), [&](int) {
            if (through_engine) {
              engine.execute(n, buffer.data());
            } else {
              raw->execute(buffer.data(), 1, ctx);
            }
            buffer.transformed();
            return std::uint64_t{1};
          });
      return 1e9 / rps;
    };
    std::vector<double> engine_ns, raw_ns, diff_ns;
    for (int round = 0; round < std::max(reps * 8, 24); ++round) {
      const bool engine_first = round % 2 == 0;
      const double first = ns_per_request(engine_first);
      const double second = ns_per_request(!engine_first);
      engine_ns.push_back(engine_first ? first : second);
      raw_ns.push_back(engine_first ? second : first);
      diff_ns.push_back(engine_ns.back() - raw_ns.back());
    }
    cell.engine_ns = stats::median(engine_ns);
    cell.raw_ns = stats::median(raw_ns);
    cell.diff_ns = stats::median(diff_ns);
    std::printf(
        "engine-raw n=%-3d backend=%-10s  engine %7.1f ns   raw %7.1f ns   "
        "diff %6.1f ns\n",
        n, cell.backend.c_str(), cell.engine_ns, cell.raw_ns, cell.diff_ns);
    check_finite("engine_minus_raw", 1, buffer);
    minus_raw.push_back(cell);
  }

  // --- mixed: singles + batches across the n range ------------------------
  std::vector<int> mixed_sizes;
  for (int n = nmin; n <= nmax; n += 4) mixed_sizes.push_back(n);
  std::vector<double> mixed_rps;
  for (const int t : threads) {
    struct ClientState {
      std::vector<Buffer> singles;
      Buffer batched;  ///< `batch` vectors of 2^coalesce_n
      std::size_t next = 0;
    };
    std::vector<ClientState> states;
    for (int i = 0; i < t; ++i) {
      states.push_back({{}, Buffer(coalesce_n, batch, 30 + i)});
      for (const int n : mixed_sizes) {
        states.back().singles.emplace_back(n, 1, 20 + i);
      }
    }
    mixed_rps.push_back(best_throughput(
        t, seconds, reps,
        [&engine, &states, &mixed_sizes, coalesce_n, batch](int tid) {
          auto& state = states[static_cast<std::size_t>(tid)];
          const std::size_t shape = state.next++ % (mixed_sizes.size() + 1);
          if (shape < mixed_sizes.size()) {
            Buffer& single = state.singles[shape];
            engine.execute(mixed_sizes[shape], single.data());
            single.transformed();
            return std::uint64_t{1};
          }
          engine.execute_many(coalesce_n, state.batched.data(), batch);
          state.batched.transformed();
          return static_cast<std::uint64_t>(batch);
        }));
    std::printf("mixed   n=[%d..%d] clients=%-2d  %10.0f req/s\n", nmin, nmax,
                t, mixed_rps.back());
    for (const ClientState& state : states) {
      for (const Buffer& buffer : state.singles) {
        check_finite("mixed", t, buffer);
      }
      check_finite("mixed", t, state.batched);
    }
  }

  // --- coalesce: submit() pipelines vs synchronous singles ----------------
  std::vector<double> coalesce_rps;
  std::vector<double> sync_rps;
  for (const int t : threads) {
    std::vector<std::vector<Buffer>> buffers(static_cast<std::size_t>(t));
    for (int i = 0; i < t; ++i) {
      for (int p = 0; p < pipeline; ++p) {
        buffers[static_cast<std::size_t>(i)].emplace_back(
            coalesce_n, 1, 40 + i * pipeline + p);
      }
    }
    coalesce_rps.push_back(best_throughput(
        t, seconds, reps, [&engine, &buffers, coalesce_n, pipeline](int tid) {
          auto& mine = buffers[static_cast<std::size_t>(tid)];
          std::vector<std::future<void>> inflight;
          inflight.reserve(static_cast<std::size_t>(pipeline));
          for (int p = 0; p < pipeline; ++p) {
            inflight.push_back(
                engine.submit(coalesce_n,
                              mine[static_cast<std::size_t>(p)].data()));
          }
          for (auto& f : inflight) f.get();
          for (Buffer& buffer : mine) buffer.transformed();
          return static_cast<std::uint64_t>(pipeline);
        }));
    sync_rps.push_back(sync_singles("coalesce", coalesce_n, t));
    std::printf("coalesce n=%-3d clients=%-2d  submit %9.0f req/s   sync %9.0f req/s\n",
                coalesce_n, t, coalesce_rps.back(), sync_rps.back());
    for (const auto& mine : buffers) {
      for (const Buffer& buffer : mine) check_finite("coalesce", t, buffer);
    }
  }

  // --- telemetry overhead: recording cost on the hot path -----------------
  // Two fresh engines serve the identical single-vector workload from one
  // client; the delta is the per-request price of the two timestamps plus
  // the relaxed-atomic recording.  The backend is pinned to the main
  // engine's pick so both variants run the exact same kernel — with
  // measure_costs left on, independent anchor re-measurement can flip the
  // arbiter between near-tied backends and swamp the nanosecond-scale
  // effect under test.  One client keeps the comparison clean — under
  // contention the recording cost hides in coherence noise, which would
  // only flatter the result.
  TelemetryOverhead overhead;
  if (cli.has("telemetry-overhead")) {
    const int overhead_n = static_cast<int>(cli.get_int("overhead-n", 12));
    const std::string pinned = engine.arbitrate(overhead_n, 1).backend;
    const auto make_probe = [&](bool telemetry) {
      wht::EngineOptions variant = options;
      variant.telemetry = telemetry;
      variant.backends = {pinned};
      variant.measure_costs = false;  // one candidate; anchors can't reroute
      return std::make_unique<wht::Engine>(variant);
    };
    const auto probe_on = make_probe(true);
    const auto probe_off = make_probe(false);
    Buffer buffer(overhead_n, 1, 7);
    // Short windows, many paired rounds: on this class of (virtualized)
    // host the noise is bursty steal time, so a 0.1 s on/off pair usually
    // lands inside one noise regime and the median over many pairs is far
    // tighter than a few long windows.
    const double window = std::min(seconds, 0.1);
    const int rounds = std::max(reps * 8, 24);
    const auto time_probe = [&](wht::Engine& probe) {
      return throughput(1, window, [&probe, &buffer, overhead_n](int) {
        probe.execute(overhead_n, buffer.data());
        buffer.transformed();
        return std::uint64_t{1};
      });
    };
    // Pay planning, then warm caches and clocks before timing.
    for (int i = 0; i < 512; ++i) {
      probe_on->execute(overhead_n, buffer.data());
      probe_off->execute(overhead_n, buffer.data());
      buffer.transformed();
      buffer.transformed();
    }
    // The effect under test is ~100 ns/request, so this cell takes more
    // rounds than the throughput cells to let the median converge.
    overhead.measured = true;
    overhead.n = overhead_n;
    for (int r = 0; r < rounds; ++r) {
      const double on = time_probe(*probe_on);
      const double off = time_probe(*probe_off);
      overhead.on_rps = std::max(overhead.on_rps, on);
      overhead.off_rps = std::max(overhead.off_rps, off);
      if (off > 0.0) overhead.round_pcts.push_back((off - on) / off * 100.0);
    }
    std::printf(
        "telemetry n=%-3d backend=%-10s  on %9.0f req/s   off %9.0f req/s   "
        "overhead %.2f%%\n",
        overhead_n, pinned.c_str(), overhead.on_rps, overhead.off_rps,
        overhead.overhead_pct());
    check_finite("telemetry", 1, buffer);
  }

  const auto stats = engine.stats();
  const std::string out_path = cli.get("out");
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_serve: cannot write %s\n", out_path.c_str());
    return 1;
  }
  print_json(out, decisions, threads, gate_n, single_rps, sync, small,
             minus_raw, mixed_rps, coalesce_n, coalesce_rps, sync_rps,
             overhead, stats);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (!finite) {
    std::fprintf(stderr, "bench_serve: FAIL served data went non-finite\n");
    return 1;
  }

  const double gate = cli.get_double("assert-scaling", 0.0);
  if (gate > 0.0) {
    const int gate_clients = static_cast<int>(cli.get_int("assert-threads", 4));
    double base = 0.0, scaled = 0.0;
    for (std::size_t i = 0; i < threads.size(); ++i) {
      if (threads[i] == 1) base = single_rps[i];
      if (threads[i] == gate_clients) scaled = single_rps[i];
    }
    if (base <= 0.0 || scaled <= 0.0) {
      std::fprintf(stderr,
                   "bench_serve: --assert-scaling needs 1 and %d in --threads\n",
                   gate_clients);
      return 1;
    }
    const double ratio = scaled / base;
    std::printf("scaling gate: %d clients = %.2fx of 1 client (need >= %.2f)\n",
                gate_clients, ratio, gate);
    if (ratio < gate) {
      std::fprintf(stderr,
                   "bench_serve: FAIL concurrent throughput %.2fx < %.2fx\n",
                   ratio, gate);
      return 1;
    }
  }

  const double submit_gate = cli.get_double("assert-submit-ratio", 0.0);
  if (submit_gate > 0.0) {
    const auto one = std::find(threads.begin(), threads.end(), 1);
    if (one == threads.end()) {
      std::fprintf(stderr,
                   "bench_serve: --assert-submit-ratio needs 1 in --threads\n");
      return 1;
    }
    const std::size_t i = static_cast<std::size_t>(one - threads.begin());
    const double ratio =
        sync_rps[i] > 0.0 ? coalesce_rps[i] / sync_rps[i] : 0.0;
    std::printf("submit gate: 1-client submit = %.2fx of sync (need >= %.2f)\n",
                ratio, submit_gate);
    if (ratio < submit_gate) {
      std::fprintf(stderr, "bench_serve: FAIL submit/sync %.2fx < %.2fx\n",
                   ratio, submit_gate);
      return 1;
    }
  }

  const double overhead_gate = cli.get_double("assert-overhead-pct", 0.0);
  if (overhead_gate > 0.0) {
    if (!overhead.measured) {
      std::fprintf(stderr,
                   "bench_serve: --assert-overhead-pct needs "
                   "--telemetry-overhead\n");
      return 1;
    }
    if (overhead.overhead_pct() > overhead_gate) {
      std::fprintf(stderr,
                   "bench_serve: FAIL telemetry overhead %.2f%% > %.2f%%\n",
                   overhead.overhead_pct(), overhead_gate);
      return 1;
    }
  }
  return 0;
}
