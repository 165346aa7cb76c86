// bench_plan_time — kEstimate planning wall-time per (n, backend), the
// committed BENCH_plan.json cells.
//
// Each cell times wht::Planner end to end (search + model, the product
// path) and records the plan's evaluation count.  kEstimate, the one
// model-driven search, is the DP over split compositions of at most 4
// parts: per size m it prices C(m-1, 1) + C(m-1, 2) + C(m-1, 3) splits
// (plus a leaf while m fits a codelet) and walks only those, so n = 22
// costs milliseconds on the tree-walk backends.  "fused" is plan-oblivious:
// its cells read microseconds and 0 evaluations.
//
// Noise convention (README bench section): every reported cell is a median
// over --reps timed repetitions, after one untimed plan of the same cell.
//
// Run:  ./bench_plan_time [--out FILE] [--nmin N] [--nmax N] [--step N]
//                         [--reps N] [--backends a,b,..] [--max-seconds S]
//       --max-seconds S exits nonzero when any cell's median exceeds S —
//       the CI plan-time regression gate.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "api/wht.hpp"
#include "simd/cpu_features.hpp"
#include "util/cli.hpp"

namespace {

using namespace whtlab;

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::string current;
  for (const char c : text) {
    if (c == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

/// One full Planner().backend(b).plan(n) (kEstimate, the default):
/// wall-clock seconds, and the plan's evaluation count in `evaluations`.
double time_plan_once(const std::string& backend, int n,
                      std::uint64_t& evaluations) {
  wht::Planner planner;
  planner.backend(backend);
  const auto start = std::chrono::steady_clock::now();
  auto transform = planner.plan(n);
  const auto stop = std::chrono::steady_clock::now();
  evaluations = transform.planning().evaluations;
  return std::chrono::duration<double>(stop - start).count();
}

struct Cell {
  std::string backend;
  int n = 0;
  double seconds = 0.0;
  std::uint64_t evaluations = 0;  ///< every rep plans the same, so one count
  int reps = 0;
};

Cell time_plan_median(const std::string& backend, int n, int reps) {
  Cell cell;
  cell.backend = backend;
  cell.n = n;
  cell.reps = reps;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  // One untimed plan first, so the cell's cold first plan (fresh heap,
  // cold caches) is not among its samples.
  time_plan_once(backend, n, cell.evaluations);
  for (int r = 0; r < reps; ++r) {
    samples.push_back(time_plan_once(backend, n, cell.evaluations));
  }
  cell.seconds = median(samples);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("out", "output JSON path", "BENCH_plan.json");
  cli.add_flag("nmin", "smallest size log2", "14");
  cli.add_flag("nmax", "largest size log2", "22");
  cli.add_flag("step", "size stride", "2");
  cli.add_flag("reps", "timed repetitions per cell (median)", "9");
  cli.add_flag("backends", "comma list of backends", "generated,simd,fused");
  cli.add_flag("max-seconds",
               "fail (exit 1) when a cell's median exceeds this", "0");
  if (!cli.parse(argc, argv)) return 2;

  const std::string out = cli.get("out");
  const int nmin = static_cast<int>(cli.get_int("nmin", 14));
  const int nmax = static_cast<int>(cli.get_int("nmax", 22));
  const int step = static_cast<int>(cli.get_int("step", 2));
  const int reps = static_cast<int>(cli.get_int("reps", 9));
  if (reps < 1 || step < 1) {
    std::fprintf(stderr, "bench_plan_time: --reps and --step must be >= 1\n");
    return 2;
  }
  const double max_seconds = cli.get_double("max-seconds", 0.0);
  const auto backends = split_list(cli.get("backends"));
  const unsigned host_cores = std::thread::hardware_concurrency();

  std::printf("simd level: %s; host cores %u; reps %d (median per cell)\n",
              simd::to_string(simd::active_level()), host_cores, reps);
  std::printf("%10s %4s %14s %12s %6s\n", "backend", "n", "plan sec",
              "evaluations", "reps");

  std::vector<Cell> cells;
  bool gate_failed = false;
  for (const auto& backend : backends) {
    for (int n = nmin; n <= nmax; n += step) {
      const Cell cell = time_plan_median(backend, n, reps);

      if (max_seconds > 0 && cell.seconds > max_seconds) {
        std::fprintf(stderr,
                     "plan-time gate FAILED: %s n=%d took %.4f s "
                     "(budget %.4f s)\n",
                     backend.c_str(), n, cell.seconds, max_seconds);
        gate_failed = true;
      }

      std::printf("%10s %4d %14.6f %12llu %6d\n", backend.c_str(), n,
                  cell.seconds,
                  static_cast<unsigned long long>(cell.evaluations),
                  cell.reps);
      std::fflush(stdout);
      cells.push_back(cell);
    }
  }

  std::FILE* json = std::fopen(out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"plan_time\",\n");
  std::fprintf(json, "  \"host_cores\": %u,\n", host_cores);
  std::fprintf(json, "  \"level\": \"%s\",\n",
               simd::to_string(simd::active_level()));
  std::fprintf(json,
               "  \"aggregation\": \"median wall seconds per cell\",\n");
  std::fprintf(json, "  \"results\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    std::fprintf(json,
                 "    {\"strategy\": \"estimate\", \"backend\": \"%s\", "
                 "\"n\": %d, \"plan_seconds\": %.6f, \"evaluations\": %llu, "
                 "\"reps\": %d}%s\n",
                 cell.backend.c_str(), cell.n, cell.seconds,
                 static_cast<unsigned long long>(cell.evaluations), cell.reps,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", out.c_str());
  return gate_failed ? 1 : 0;
}
