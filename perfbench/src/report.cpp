#include "report.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "host.hpp"

namespace perfbench {

void Report::add_percentile(const std::string& name, const Percentile& p,
                            double scale, const std::string& unit) {
  add(name, p.value * scale, unit);
  note_percentile(name, p);
}

void Report::print_percentile(const std::string& name, const Percentile& p,
                              double scale, const std::string& unit) {
  printed.push_back({name, p.value * scale, unit});
  note_percentile(name, p);
}

void Report::note_percentile(const std::string& label, const Percentile& p) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"%s\": {\"samples\": %" PRIu64 ", \"beyond\": %" PRIu64
                ", \"supported\": %s}",
                label.c_str(), p.samples, p.beyond,
                p.supported() ? "true" : "false");
  details.emplace_back(buf);
  if (!p.supported()) unsupported.push_back(label);
}

bool Report::correct() const {
  if (!error.empty() || mismatches != 0 || attempted == 0) return false;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) return false;
  }
  return true;
}

void print_report(const Report& report, const RunOptions& options) {
  std::printf("workload %s  seed %" PRIu64 "  seconds %.3g  trace %d\n",
              options.workload.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0);
  for (const Report::Metric& m : report.metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const double failed_frac =
      report.attempted == 0 ? 0.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  for (const Report::Metric& m : report.printed) {
    std::printf("  %-36s %16.6g %s  (printed only)\n", m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("  %-36s %16.6g %s  (printed only)\n", "failed_frac",
              failed_frac, "ratio");
  std::printf("  attempted %" PRIu64 "  failed %" PRIu64 "  mismatches %" PRIu64
              "\n",
              report.attempted, report.failed, report.mismatches);
  for (const std::string& label : report.unsupported) {
    std::printf("  unsupported: %s has fewer than ten samples beyond it\n",
                label.c_str());
  }
  if (!report.error.empty()) {
    std::printf("  error: %s\n", report.error.c_str());
  }

  std::printf("{\"host\": %s, \"failed_frac\": %.17g, \"mismatches\": %" PRIu64
              ", \"printed\": {",
              host_json(options.commit).c_str(), failed_frac,
              report.mismatches);
  for (std::size_t i = 0; i < report.printed.size(); ++i) {
    const Report::Metric& m = report.printed[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}, \"details\": {");
  for (std::size_t i = 0; i < report.details.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", report.details[i].c_str());
  }
  std::printf("}}\n");

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              report.correct() ? "true" : "false", report.attempted,
              report.failed);
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Report::Metric& m = report.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
