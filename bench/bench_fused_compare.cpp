// bench_fused_compare — tree-walk SIMD vs cache-blocked fused engine
// (BENCH_fused.json), the memory-bound big-n trajectory.
//
// For each size n in [nmin, nmax], plans "simd" with the measurement-free
// kEstimate strategy (candidates priced by the SIMD instruction model) and
// "fused" with no search at all (it is plan-oblivious: one schedule per
// size), and times single transforms through each backend with
// the perf protocol (warmup, repetitions, median — the noise convention for
// 1-vCPU hosts; see README's bench section).  A scalar "generated" column
// anchors the absolute speedups.  --threads adds one fused column per
// thread count T, timed through a "fused" backend created with threads = T
// (one vector split across T threads beyond the largest cache block; see
// simd/fused_executor.hpp).  Every fused backend is checked bit-exact
// against the scalar interpreter before timing.  Emits an aligned table and
// a JSON trajectory including the geomean fused-vs-simd speedup over
// n >= 18 (the beyond-L2 regime the fused engine exists for) and the host's
// core count.
//
// Run:  ./bench_fused_compare [--out FILE] [--nmin N] [--nmax N] [--reps N]
//                             [--threads 1,2,4]
//                             [--level scalar|avx2|avx512] [--no-baseline]
//                             [--wisdom FILE]
//       (util::Cli parsing: --name value and --name=value both work;
//        --no-baseline skips the slow scalar column for quick ablations —
//        its JSON fields become null;
//        --wisdom caches the "simd" kEstimate winners so repeat runs skip
//        even the millisecond analytic planning pass — see bench_plan_time
//        for the planning-cost trajectory itself.)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/wht.hpp"
#include "core/executor.hpp"
#include "core/schedule.hpp"
#include "perf/measure.hpp"
#include "simd/cpu_features.hpp"
#include "simd/fused_executor.hpp"
#include "util/aligned_buffer.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace whtlab;

  util::Cli cli;
  cli.add_flag("out", "output JSON path", "BENCH_fused.json");
  cli.add_flag("nmin", "smallest size log2", "14");
  cli.add_flag("nmax", "largest size log2", "22");
  cli.add_flag("reps", "timed repetitions per cell (median reported)", "9");
  cli.add_flag("threads",
               "fused thread counts, comma-separated (1 is always timed)", "1");
  cli.add_flag("level", "cap the SIMD level: scalar|avx2|avx512");
  cli.add_bool("no-baseline", "skip the slow scalar generated column");
  cli.add_flag("wisdom", "plan-cache file (skips re-planning on repeat runs)");
  if (!cli.parse(argc, argv)) return 2;

  const std::string out = cli.get("out");
  const std::string wisdom = cli.get("wisdom");
  const int nmin = static_cast<int>(cli.get_int("nmin", 14));
  const int nmax = static_cast<int>(cli.get_int("nmax", 22));
  const int reps = static_cast<int>(cli.get_int("reps", 9));
  const bool baseline = !cli.has("no-baseline");
  if (cli.has("level")) simd::force_level(simd::parse_level(cli.get("level")));
  std::vector<int> threads = cli.get_int_list("threads");
  threads.erase(std::remove_if(threads.begin(), threads.end(),
                               [](int t) { return t <= 1; }),
                threads.end());
  threads.insert(threads.begin(), 1);  // the fused-vs-simd columns' cell

  const simd::SimdLevel level = simd::active_level();
  const core::BlockingConfig blocking = simd::detect_blocking();
  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf(
      "simd level: %s (width %d), blocks 2^%d / 2^%d doubles, reps %d "
      "(median per cell), host cores %u\n",
      simd::to_string(level), simd::vector_width(level),
      blocking.l1_block_log2, blocking.l2_block_log2, reps, host_cores);
  std::printf("%4s %6s %16s %16s %16s %10s %10s", "n", "sweeps",
              "generated cyc", "simd cyc", "fused cyc", "vs simd", "vs scalar");
  for (std::size_t t = 1; t < threads.size(); ++t) {
    const std::string label = "T=" + std::to_string(threads[t]) + " vs 1";
    std::printf(" %12s", label.c_str());
  }
  std::printf("\n");

  perf::MeasureOptions options;
  options.repetitions = reps;

  struct Row {
    int n;
    int sweeps;
    double generated, simd_cycles;
    std::vector<double> fused;  ///< per entry of `threads`; [0] is 1 thread
  };
  std::vector<Row> rows;

  auto scalar_backend = wht::BackendRegistry::global().create("generated");
  auto simd_backend = wht::BackendRegistry::global().create("simd");
  std::vector<std::unique_ptr<wht::ExecutorBackend>> fused_backends;
  for (const int t : threads) {
    wht::BackendOptions fused_options;
    fused_options.threads = t;
    fused_backends.push_back(
        wht::BackendRegistry::global().create("fused", fused_options));
  }

  for (int n = nmin; n <= nmax; ++n) {
    // "simd" gets its own kEstimate winner, priced by the model of the
    // engine that will run it; "fused" plans nothing.
    wht::Planner simd_planner;
    simd_planner.backend("simd");
    wht::Planner fused_planner;
    fused_planner.backend("fused");
    if (!wisdom.empty()) {
      simd_planner.wisdom_file(wisdom);
      fused_planner.wisdom_file(wisdom);
    }
    const core::Plan simd_plan = simd_planner.plan(n).plan();
    const core::Plan fused_plan = fused_planner.plan(n).plan();

    // Bit-exactness gate, at every thread count, before timing anything.
    const std::uint64_t size = std::uint64_t{1} << n;
    util::AlignedBuffer input(size);
    util::Rng rng(static_cast<std::uint64_t>(n) * 71 + 13);
    for (std::uint64_t i = 0; i < size; ++i) input[i] = rng.uniform(-1, 1);
    util::AlignedBuffer reference(size);
    for (std::uint64_t i = 0; i < size; ++i) reference[i] = input[i];
    core::execute(fused_plan, reference.data());
    for (std::size_t t = 0; t < threads.size(); ++t) {
      util::AlignedBuffer x(size);
      for (std::uint64_t i = 0; i < size; ++i) x[i] = input[i];
      fused_backends[t]->run(fused_plan, x.data(), 1);
      for (std::uint64_t i = 0; i < size; ++i) {
        if (x[i] != reference[i]) {
          std::fprintf(stderr, "parity FAILED at n=%d threads=%d i=%llu\n", n,
                       threads[t], static_cast<unsigned long long>(i));
          return 1;
        }
      }
    }

    Row row{};
    row.n = n;
    row.sweeps = core::sweep_count(core::lower_size(n, blocking));
    row.generated =
        baseline
            ? wht::measure_with_backend(*scalar_backend, simd_plan, options)
                  .cycles()
            : 0.0;
    row.simd_cycles =
        wht::measure_with_backend(*simd_backend, simd_plan, options).cycles();
    for (const auto& backend : fused_backends) {
      row.fused.push_back(
          wht::measure_with_backend(*backend, fused_plan, options).cycles());
    }
    rows.push_back(row);

    const double fused = row.fused.front();
    if (baseline) {
      std::printf("%4d %6d %16.0f %16.0f %16.0f %9.2fx %9.2fx", n, row.sweeps,
                  row.generated, row.simd_cycles, fused,
                  row.simd_cycles / fused, row.generated / fused);
    } else {
      std::printf("%4d %6d %16s %16.0f %16.0f %9.2fx %10s", n, row.sweeps, "-",
                  row.simd_cycles, fused, row.simd_cycles / fused, "-");
    }
    for (std::size_t t = 1; t < threads.size(); ++t) {
      std::printf(" %11.2fx", fused / row.fused[t]);
    }
    std::printf("\n");
  }

  // Geomean of the fused-vs-simd speedup over the beyond-L2 sizes.
  double log_sum = 0.0;
  int log_count = 0;
  for (const Row& r : rows) {
    if (r.n >= 18) {
      log_sum += std::log(r.simd_cycles / r.fused.front());
      ++log_count;
    }
  }
  const double geomean = log_count > 0 ? std::exp(log_sum / log_count) : 0.0;
  if (log_count > 0) {
    std::printf("geomean fused-vs-simd speedup, n in [18, %d]: %.3fx\n",
                rows.back().n, geomean);
  }

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
    return 1;
  }
  std::string thread_list;
  for (const int t : threads) {
    thread_list += (thread_list.empty() ? "" : ", ") + std::to_string(t);
  }
  std::fprintf(f,
               "{\n  \"bench\": \"fused_compare\",\n  \"level\": \"%s\",\n"
               "  \"vector_width\": %d,\n  \"l1_block_log2\": %d,\n"
               "  \"l2_block_log2\": %d,\n  \"host_cores\": %u,\n"
               "  \"repetitions\": %d,\n  \"threads\": [%s],\n"
               "  \"aggregation\": \"median per cell, geomean across sizes\",\n"
               "  \"parity\": \"bit-identical vs generated at every thread "
               "count\",\n"
               "  \"geomean_fused_vs_simd_n18plus\": %.3f,\n"
               "  \"results\": [\n",
               simd::to_string(level), simd::vector_width(level),
               blocking.l1_block_log2, blocking.l2_block_log2, host_cores, reps,
               thread_list.c_str(), geomean);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double fused = r.fused.front();
    std::string scalar_fields = "null, \"fused_vs_scalar\": null";
    if (baseline) {
      char buffer[96];
      std::snprintf(buffer, sizeof(buffer), "%.1f, \"fused_vs_scalar\": %.3f",
                    r.generated, r.generated / fused);
      scalar_fields = buffer;
    }
    std::string by_threads;
    for (std::size_t t = 0; t < threads.size(); ++t) {
      char buffer[96];
      std::snprintf(buffer, sizeof(buffer),
                    "%s{\"threads\": %d, \"cycles\": %.1f, \"vs_1\": %.3f}",
                    t == 0 ? "" : ", ", threads[t], r.fused[t],
                    fused / r.fused[t]);
      by_threads += buffer;
    }
    std::fprintf(f,
                 "    {\"n\": %d, \"sweeps\": %d, "
                 "\"generated_cycles\": %s, \"simd_cycles\": %.1f, "
                 "\"fused_cycles\": %.1f, \"fused_vs_simd\": %.3f, "
                 "\"fused_threads\": [%s]}%s\n",
                 r.n, r.sweeps, scalar_fields.c_str(), r.simd_cycles, fused,
                 r.simd_cycles / fused, by_threads.c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
