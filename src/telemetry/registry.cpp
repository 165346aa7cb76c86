#include "telemetry/registry.hpp"

#include <cinttypes>
#include <cstdio>

namespace whtlab::telemetry {

Accumulator& Registry::series(int n, const std::string& backend, bool batch) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Accumulator>& cell = series_[{n, backend, batch}];
  if (!cell) cell = std::make_unique<Accumulator>();
  return *cell;  // map nodes are stable; series are never erased
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  const std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(series_.size());
  // std::map iterates in key order — (n, backend, batch) ascending — which
  // is exactly the stable export order to_text() promises.
  for (const auto& [key, cell] : series_) {
    SeriesSnapshot s;
    s.n = std::get<0>(key);
    s.backend = std::get<1>(key);
    s.batch = std::get<2>(key);
    s.stats = cell->snapshot();
    out.push_back(std::move(s));
  }
  return out;
}

std::string to_text(const Snapshot& snapshot) {
  std::string out;
  out.reserve(snapshot.size() * 360);
  char line[256];
  for (const SeriesSnapshot& s : snapshot) {
    char labels[96];
    std::snprintf(labels, sizeof(labels),
                  "{n=\"%d\",backend=\"%s\",shape=\"%s\"}", s.n,
                  s.backend.c_str(), s.batch ? "batch" : "single");
    std::snprintf(line, sizeof(line), "wht_observations_total%s %" PRIu64 "\n",
                  labels, s.stats.count);
    out += line;
    if (s.stats.count == 0) continue;  // distributions undefined when empty
    std::snprintf(line, sizeof(line), "wht_cycles_per_vector_mean%s %.1f\n",
                  labels, s.stats.mean());
    out += line;
    std::snprintf(line, sizeof(line), "wht_cycles_per_vector_p50%s %.0f\n",
                  labels, s.stats.percentile(0.50));
    out += line;
    std::snprintf(line, sizeof(line), "wht_cycles_per_vector_p99%s %.0f\n",
                  labels, s.stats.percentile(0.99));
    out += line;
    std::snprintf(line, sizeof(line), "wht_cycles_per_vector_min%s %" PRIu64 "\n",
                  labels, s.stats.min);
    out += line;
    std::snprintf(line, sizeof(line), "wht_cycles_per_vector_max%s %" PRIu64 "\n",
                  labels, s.stats.max);
    out += line;
  }
  return out;
}

}  // namespace whtlab::telemetry
