// bench_simd_compare — scalar-vs-SIMD perf trajectory (BENCH_simd.json).
//
// For each size n in [nmin, nmax], plans once with the measurement-free
// kEstimate strategy and times the SAME plan on the "generated" (scalar)
// and "simd" backends, single-shot and batched (execute_many over `batch`
// packed vectors — the high-throughput serving shape).  Emits an aligned
// table on stdout and a JSON trajectory that records the host's core count:
//
//   { "bench": "simd_compare", "level": "avx512", "vector_width": 8,
//     "host_cores": 4, ...,
//     "results": [ { "n": 10, "single_scalar_cycles": ...,
//                    "single_simd_cycles": ..., "single_speedup": ...,
//                    "batch_scalar_cycles_per_vec": ...,
//                    "batch_simd_cycles_per_vec": ...,
//                    "batch_speedup": ... }, ... ] }
//
// Run:  ./bench_simd_compare [--out FILE] [--nmin N] [--nmax N]
//                            [--batch N] [--reps N] [--level scalar|avx2|avx512]
//       (util::Cli parsing: --name value and --name=value both work; every
//        reported cycle count is the median over reps.)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/wht.hpp"
#include "perf/measure.hpp"
#include "simd/cpu_features.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace whtlab;

  util::Cli cli;
  cli.add_flag("out", "output JSON path", "BENCH_simd.json");
  cli.add_flag("nmin", "smallest size log2", "10");
  cli.add_flag("nmax", "largest size log2", "20");
  cli.add_flag("batch", "vectors per execute_many batch", "32");
  cli.add_flag("reps", "timed repetitions per cell (median reported)", "7");
  cli.add_flag("level", "cap the SIMD level: scalar|avx2|avx512");
  if (!cli.parse(argc, argv)) return 2;

  const std::string out = cli.get("out");
  const int nmin = static_cast<int>(cli.get_int("nmin", 10));
  const int nmax = static_cast<int>(cli.get_int("nmax", 20));
  const std::size_t batch =
      static_cast<std::size_t>(cli.get_int("batch", 32));
  const int reps = static_cast<int>(cli.get_int("reps", 7));
  if (cli.has("level")) simd::force_level(simd::parse_level(cli.get("level")));

  const simd::SimdLevel level = simd::active_level();
  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("simd level: %s (width %d), batch %zu, reps %d, host cores %u\n",
              simd::to_string(level), simd::vector_width(level), batch, reps,
              host_cores);
  std::printf("%4s %16s %16s %8s %16s %16s %8s\n", "n", "scalar cyc",
              "simd cyc", "speedup", "scalar cyc/vec", "simd cyc/vec",
              "speedup");

  perf::MeasureOptions options;
  options.repetitions = reps;

  struct Row {
    int n;
    double single_scalar, single_simd, batch_scalar, batch_simd;
  };
  std::vector<Row> rows;

  auto scalar_backend = wht::BackendRegistry::global().create("generated");
  auto simd_backend = wht::BackendRegistry::global().create("simd");

  for (int n = nmin; n <= nmax; ++n) {
    const core::Plan plan = wht::Planner().plan(n).plan();
    const std::ptrdiff_t dist = static_cast<std::ptrdiff_t>(plan.size());

    Row row{};
    row.n = n;
    row.single_scalar =
        wht::measure_with_backend(*scalar_backend, plan, options).cycles();
    row.single_simd =
        wht::measure_with_backend(*simd_backend, plan, options).cycles();

    const std::uint64_t total = plan.size() * batch;
    row.batch_scalar =
        perf::measure_run(
            [&](double* x) { scalar_backend->run_many(plan, x, batch, dist); },
            total, options)
            .cycles() /
        static_cast<double>(batch);
    row.batch_simd =
        perf::measure_run(
            [&](double* x) { simd_backend->run_many(plan, x, batch, dist); },
            total, options)
            .cycles() /
        static_cast<double>(batch);
    rows.push_back(row);

    std::printf("%4d %16.0f %16.0f %7.2fx %16.0f %16.0f %7.2fx\n", n,
                row.single_scalar, row.single_simd,
                row.single_scalar / row.single_simd, row.batch_scalar,
                row.batch_simd, row.batch_scalar / row.batch_simd);
  }

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"simd_compare\",\n  \"level\": \"%s\",\n"
               "  \"vector_width\": %d,\n  \"host_cores\": %u,\n"
               "  \"batch\": %zu,\n  \"repetitions\": %d,\n"
               "  \"results\": [\n",
               simd::to_string(level), simd::vector_width(level), host_cores,
               batch, reps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"n\": %d, \"single_scalar_cycles\": %.1f, "
                 "\"single_simd_cycles\": %.1f, \"single_speedup\": %.3f, "
                 "\"batch_scalar_cycles_per_vec\": %.1f, "
                 "\"batch_simd_cycles_per_vec\": %.1f, "
                 "\"batch_speedup\": %.3f}%s\n",
                 r.n, r.single_scalar, r.single_simd,
                 r.single_scalar / r.single_simd, r.batch_scalar, r.batch_simd,
                 r.batch_scalar / r.batch_simd,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
