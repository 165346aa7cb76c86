// Engine live telemetry: every served request is recorded and stays
// counted (series are lifetime totals), and recording only observes.
//
// Backends here execute the real transform and then busy-wait a
// *controllable* wall-clock delay, so their measured first-touch anchors
// and their live served cycles are both dominated by a knob the test owns.
// Degrading the fast backend at runtime models drift (frequency scaling,
// co-tenancy, cache pressure): the series records it, while the arbiter
// keeps pricing from the first-touch anchors.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/engine.hpp"
#include "api/executor_backend.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "util/rng.hpp"

namespace whtlab::api {
namespace {

using util::random_vector;

std::atomic<std::uint64_t> g_fast_spin_ns{30000};
std::atomic<std::uint64_t> g_slow_spin_ns{120000};

/// Correct executor whose runtime is a test-owned busy-wait: the spin
/// dwarfs the tiny transform, so measured cycles track the knob.
class SpinBackend final : public ExecutorBackend {
 public:
  SpinBackend(std::string name, std::atomic<std::uint64_t>* spin_ns)
      : name_(std::move(name)), spin_ns_(spin_ns) {}

  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x, std::ptrdiff_t stride,
           ExecContext& /*ctx*/) const override {
    core::execute_node(plan.root(), x, stride,
                       core::codelet_table(core::CodeletBackend::kGenerated));
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::nanoseconds(spin_ns_->load(std::memory_order_relaxed));
    while (std::chrono::steady_clock::now() < deadline) {
    }
  }

 private:
  std::string name_;
  std::atomic<std::uint64_t>* spin_ns_;
};

void ensure_spin_backends() {
  auto& registry = BackendRegistry::global();
  if (registry.contains("drift-fast")) return;
  registry.register_factory("drift-fast", [](const BackendOptions&) {
    return std::make_unique<SpinBackend>("drift-fast", &g_fast_spin_ns);
  });
  registry.register_factory("drift-slow", [](const BackendOptions&) {
    return std::make_unique<SpinBackend>("drift-slow", &g_slow_spin_ns);
  });
}

EngineOptions drift_options() {
  ensure_spin_backends();
  EngineOptions options;
  options.backends = {"drift-fast", "drift-slow"};
  options.measure_costs = true;  // anchors in cycles, like the live series
  return options;
}

class EngineDriftTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_fast_spin_ns.store(30000);   // 30 us: wins arbitration while healthy
    g_slow_spin_ns.store(120000);  // 120 us: the runner-up
  }
};

TEST_F(EngineDriftTest, RecordsTelemetryPerSeries) {
  Engine engine(drift_options());
  const int n = 4;
  for (int i = 0; i < 5; ++i) {
    auto x = random_vector(std::size_t{1} << n, 10 + i);
    engine.execute(n, x.data());
  }
  std::uint64_t singles = 0;
  for (const auto& series : engine.telemetry_snapshot()) {
    EXPECT_EQ(series.n, n);
    if (!series.batch) singles += series.stats.count;
    if (series.stats.count > 0) {
      EXPECT_GT(series.stats.mean(), 0.0);
      EXPECT_LE(series.stats.percentile(0.5), series.stats.percentile(0.99));
    }
  }
  EXPECT_EQ(singles, 5u) << "every served single must be recorded";
}

TEST_F(EngineDriftTest, TelemetryOnlyObservesASlowdown) {
  Engine engine(drift_options());
  const int n = 4;
  ASSERT_EQ(engine.arbitrate(n, 1).backend, "drift-fast")
      << "healthy anchors: 30 us beats 120 us";

  // The fast backend degrades 20x under the arbiter's feet.  The series
  // records it; the breaker stays quiet and the anchor still prices it.
  g_fast_spin_ns.store(600000);
  for (int i = 0; i < 10; ++i) {
    auto x = random_vector(std::size_t{1} << n, 120 + i);
    engine.execute(n, x.data());
  }
  EXPECT_TRUE(engine.stats().quarantined.empty())
      << "a slow but correct backend is never quarantined";
  const Engine::Decision decision = engine.arbitrate(n, 1);
  EXPECT_EQ(decision.backend, "drift-fast")
      << "the arbiter prices from the first-touch anchor alone";
  double live_mean = 0.0;
  for (const auto& series : engine.telemetry_snapshot()) {
    if (series.backend == "drift-fast" && !series.batch) {
      live_mean = series.stats.mean();
    }
  }
  EXPECT_GT(live_mean, 4.0 * decision.cost)
      << "the series records the slowdown the price ignores";
}

TEST(EngineTelemetry, SeriesCountsAreLifetimeTotals) {
  EngineOptions options;
  options.backends = {"generated"};
  Engine engine(options);
  const int n = 6;
  constexpr std::uint64_t kRequests = 10000;
  const std::vector<double> input = random_vector(std::size_t{1} << n, 6);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    std::vector<double> x = input;
    engine.execute(n, x.data());
  }
  const auto snapshot = engine.telemetry_snapshot();
  ASSERT_EQ(snapshot.size(), 2u) << "one (n, backend) pair: single + batch";
  EXPECT_FALSE(snapshot[0].batch);
  EXPECT_EQ(snapshot[0].stats.count, kRequests)
      << "every served single stays counted";
  EXPECT_EQ(snapshot[0].stats.count, engine.stats().singles);
}

}  // namespace
}  // namespace whtlab::api
