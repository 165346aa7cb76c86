// perfbench — the whtlab benchmark program.
//
//   perfbench --workload engine_small --seed 3 --seconds 10 --trace 0
//
// Runs one workload (engine_small, kernel_large or ipc_small) and prints a
// human summary, one JSON line with the host descriptor and the sample
// counts behind every percentile, and, last, the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and span tables go to --trace-dir.  Exits 1 on
// any wrong output, non-finite value, or failed request.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "host.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload engine_small|kernel_large|"
               "ipc_small --seed N --seconds S --trace 0|1 "
               "[--commit SHA] [--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.seconds <= 0.0) {
    return usage();
  }
  perfbench::unset_whtlab_env();

  perfbench::Report report;
  try {
    if (options.workload == "engine_small" ||
        options.workload == "kernel_large") {
      report = perfbench::run_inprocess(options);
    } else if (options.workload == "ipc_small") {
      report = perfbench::run_ipc_small(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    report.error = e.what();
  }
  perfbench::print_report(report, options);
  return report.correct() && report.failed == 0 ? 0 : 1;
}
