// telemetry::Registry — the Engine's per-(n, backend, shape) series table
// and its Prometheus-style text export.
#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <string>

namespace whtlab::telemetry {
namespace {

TEST(TelemetryRegistry, SeriesIsStablePerKey) {
  Registry registry;
  Accumulator& a = registry.series(10, "simd", /*batch=*/false);
  Accumulator& b = registry.series(10, "simd", /*batch=*/false);
  EXPECT_EQ(&a, &b) << "same key must return the same accumulator";
  Accumulator& batch = registry.series(10, "simd", /*batch=*/true);
  Accumulator& other = registry.series(10, "fused", /*batch=*/false);
  EXPECT_NE(&a, &batch);
  EXPECT_NE(&a, &other);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(TelemetryRegistry, SnapshotIsKeyOrderedAndComplete) {
  Registry registry;
  registry.series(12, "simd", false).record(100);
  registry.series(8, "generated", false).record(50);
  registry.series(8, "generated", true).record(25);
  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // std::map key order: (8, generated, single), (8, generated, batch),
  // (12, simd, single) — bool false < true.
  EXPECT_EQ(snap[0].n, 8);
  EXPECT_EQ(snap[0].backend, "generated");
  EXPECT_FALSE(snap[0].batch);
  EXPECT_EQ(snap[0].stats.count, 1u);
  EXPECT_EQ(snap[0].stats.min, 50u);
  EXPECT_TRUE(snap[1].batch);
  EXPECT_EQ(snap[2].n, 12);
  EXPECT_EQ(snap[2].backend, "simd");
}

TEST(TelemetryRegistry, ToTextEmitsLabeledMetrics) {
  Registry registry;
  Accumulator& series = registry.series(16, "fused", /*batch=*/false);
  for (int i = 0; i < 10; ++i) series.record(1000);
  registry.series(16, "fused", /*batch=*/true);  // empty: count line only
  const std::string text = to_text(registry.snapshot());
  EXPECT_NE(text.find("wht_observations_total{n=\"16\",backend=\"fused\","
                      "shape=\"single\"} 10"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("wht_cycles_per_vector_mean{n=\"16\",backend=\"fused\","
                      "shape=\"single\"} 1000.0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("wht_cycles_per_vector_p99"), std::string::npos);
  EXPECT_NE(text.find("shape=\"batch\"} 0"), std::string::npos)
      << "empty series still exports its count";
  EXPECT_EQ(text.find("wht_cycles_per_vector_mean{n=\"16\",backend=\"fused\","
                      "shape=\"batch\"}"),
            std::string::npos)
      << "no distribution lines for an empty series";
}

TEST(TelemetryRegistry, EmptyRegistryExportsNothing) {
  const Registry registry;
  EXPECT_TRUE(to_text(registry.snapshot()).empty());
  EXPECT_EQ(registry.size(), 0u);
}

}  // namespace
}  // namespace whtlab::telemetry
