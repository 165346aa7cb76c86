// Engine live telemetry: every served request is recorded and stays
// counted (series are lifetime totals), and recording only observes.  The
// same backends pin the first-touch anchor set: it races, isolates a
// throwing candidate, and anchors once under concurrent first touches.
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
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/executor_backend.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "util/rng.hpp"

namespace whtlab::api {
namespace {

using util::random_vector;

/// What the test owns of one spin backend: its delay, a count of its
/// run() calls, and a switch that makes every run() throw.
struct SpinKnobs {
  std::atomic<std::uint64_t> spin_ns{0};
  std::atomic<int> runs{0};
  std::atomic<bool> fail{false};
};
SpinKnobs g_fast;
SpinKnobs g_slow;

/// Correct executor whose runtime is a test-owned busy-wait: the spin
/// dwarfs the tiny transform, so measured cycles track the knob.
class SpinBackend final : public ExecutorBackend {
 public:
  SpinBackend(std::string name, SpinKnobs* knobs)
      : name_(std::move(name)), knobs_(knobs) {}

  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x, std::ptrdiff_t stride,
           ExecContext& /*ctx*/) const override {
    knobs_->runs.fetch_add(1);
    if (knobs_->fail.load()) throw std::runtime_error(name_ + " failed");
    core::execute_node(plan.root(), x, stride, core::codelet_table());
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(knobs_->spin_ns.load());
    while (std::chrono::steady_clock::now() < deadline) {
    }
  }

 private:
  std::string name_;
  SpinKnobs* knobs_;
};

void ensure_spin_backends() {
  auto& registry = BackendRegistry::global();
  if (registry.contains("drift-fast")) return;
  registry.register_factory("drift-fast", [](const BackendOptions&) {
    return std::make_unique<SpinBackend>("drift-fast", &g_fast);
  });
  registry.register_factory("drift-slow", [](const BackendOptions&) {
    return std::make_unique<SpinBackend>("drift-slow", &g_slow);
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
    for (SpinKnobs* knobs : {&g_fast, &g_slow}) {
      knobs->runs.store(0);
      knobs->fail.store(false);
    }
    g_fast.spin_ns.store(30000);   // 30 us: wins arbitration while healthy
    g_slow.spin_ns.store(120000);  // 120 us: the runner-up
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
  g_fast.spin_ns.store(600000);
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

TEST_F(EngineDriftTest, FirstTouchRacesOutACandidateFarBehind) {
  // 30 us against 600 us: after round one of the anchor set drift-slow is
  // 20x the best, so its first touch runs it exactly three times (probe,
  // warmup, one timed run), and it is still priced and ranked.
  g_slow.spin_ns.store(600000);
  Engine engine(drift_options());
  const Engine::Decision decision = engine.arbitrate(4, 1);
  EXPECT_EQ(g_slow.runs.load(), 3);
  EXPECT_EQ(decision.backend, "drift-fast");
  ASSERT_EQ(decision.candidates.size(), 2u);
  EXPECT_EQ(decision.candidates[1].backend, "drift-slow");
  EXPECT_GT(decision.candidates[1].cost, 2.0 * decision.candidates[0].cost);
}

TEST_F(EngineDriftTest, ACandidateThrowingInTheAnchorSetIsLeftOut) {
  g_slow.spin_ns.store(600000);
  g_slow.fail.store(true);
  Engine engine(drift_options());
  const int n = 4;
  const Engine::Decision decision = engine.arbitrate(n, 1);
  ASSERT_EQ(decision.candidates.size(), 1u);
  EXPECT_EQ(decision.backend, "drift-fast");
  EXPECT_EQ(g_slow.runs.load(), 1) << "its probe threw; the set went on";

  // The others serve.
  auto x = random_vector(std::size_t{1} << n, 77);
  auto reference = x;
  engine.transform(n, "drift-fast")->execute(reference.data());
  engine.execute(n, x.data());
  EXPECT_EQ(x, reference);

  // Healthy again: the next touch anchors it alone and ranks it; the
  // candidate already built is not timed again.
  g_slow.fail.store(false);
  const int fast_runs = g_fast.runs.load();
  const int slow_runs = g_slow.runs.load();
  EXPECT_EQ(engine.arbitrate(n, 1).candidates.size(), 2u);
  EXPECT_EQ(g_fast.runs.load(), fast_runs);
  EXPECT_EQ(g_slow.runs.load(), slow_runs + 5)
      << "alone: probe, warmup and three timed runs";
}

TEST_F(EngineDriftTest, ConcurrentFirstTouchesAnchorEachCandidateOnce) {
  g_slow.spin_ns.store(600000);
  Engine engine(drift_options());
  constexpr int kThreads = 8;
  std::atomic<int> waiting{kThreads};
  std::vector<std::string> winners(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) {
      }
      winners[static_cast<std::size_t>(t)] = engine.arbitrate(5, 1).backend;
    });
  }
  for (auto& thread : threads) thread.join();
  for (const std::string& winner : winners) EXPECT_EQ(winner, "drift-fast");
  // One set anchored both.  drift-slow ran its probe, warmup and one timed
  // run; drift-fast its probe, warmup and three timed units, each of one or
  // two runs (its probe reads 30-50 us or more against a 50 us unit).  A
  // second anchor would have added at least five more runs of each.
  EXPECT_EQ(g_slow.runs.load(), 3);
  EXPECT_GE(g_fast.runs.load(), 5);
  EXPECT_LE(g_fast.runs.load(), 8);
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
