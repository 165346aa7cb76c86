// What one benchmark run reports, and how it is printed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_dir;  ///< where a traced run writes its span tables
};

struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< non-kOk status, exception, or refusal
  std::uint64_t mismatches = 0;  ///< responses that differ from the reference
  std::vector<Metric> metrics;
  /// Figures printed in the summary and the details line but left out of
  /// the result line (see print_percentile).
  std::vector<Metric> printed;
  /// Extra facts for the human summary and the details line: sample counts
  /// behind each percentile, per-round figures, failed_frac.
  std::vector<std::string> details;
  std::vector<std::string> unsupported;  ///< percentiles marked unsupported
  std::string error;  ///< set when the run could not complete

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Adds a percentile metric and records its sample support; an
  /// unsupported percentile (fewer than ten samples beyond it) is marked so
  /// in the details and the summary.
  void add_percentile(const std::string& name, const Percentile& p,
                      double scale, const std::string& unit);
  /// As add_percentile, but the figure is only printed: for a percentile
  /// whose run-to-run spread on a shared host is too wide to bound.
  void print_percentile(const std::string& name, const Percentile& p,
                        double scale, const std::string& unit);
  /// Records the sample support of a percentile under `label`.
  void note_percentile(const std::string& label, const Percentile& p);
  bool correct() const;
};

/// Prints the human summary, the host/details line, and — last — the one
/// result line: {"correct", "attempted", "failed", "metrics"}.
void print_report(const Report& report, const RunOptions& options);

}  // namespace perfbench
