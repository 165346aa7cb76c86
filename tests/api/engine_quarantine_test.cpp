// Engine circuit breaker: serving-time backend failures are absorbed by a
// fallback re-run on the reference backend from a pristine input snapshot,
// repeated failures quarantine the backend out of arbitration, and a
// probation period re-probes it with live traffic.  Failures are injected
// through util/fault points (engine.exec.<backend> throws before the run,
// engine.corrupt.<backend> poisons the output after it), so every path is
// deterministic.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/executor_backend.hpp"
#include "api/planner.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace whtlab::api {
namespace {

namespace fault = util::fault;
using util::random_vector;

/// Correct executor with a scripted cost, mirroring engine_test.cpp: the
/// breaker tests need deterministic arbitration AND deterministic failures,
/// so the faults come from fault points, not from the backend itself.
class QBackend final : public ExecutorBackend {
 public:
  QBackend(std::string name, double unit_cost)
      : name_(std::move(name)), unit_cost_(unit_cost) {}

  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x, std::ptrdiff_t stride,
           ExecContext& /*ctx*/) const override {
    core::execute_node(plan.root(), x, stride,
                       core::codelet_table(core::CodeletBackend::kGenerated));
  }

  std::function<double(const core::Plan&)> cost_model() const override {
    const double cost = unit_cost_;
    return [cost](const core::Plan&) { return cost; };
  }

 private:
  std::string name_;
  double unit_cost_;
};

/// "q-fast" wins arbitration while healthy; "q-slow" is the runner-up the
/// arbiter must fail over to once q-fast is quarantined.
void ensure_backends() {
  auto& registry = BackendRegistry::global();
  if (registry.contains("q-fast")) return;
  registry.register_factory("q-fast", [](const BackendOptions&) {
    return std::make_unique<QBackend>("q-fast", 10.0);
  });
  registry.register_factory("q-slow", [](const BackendOptions&) {
    return std::make_unique<QBackend>("q-slow", 1000.0);
  });
}

EngineOptions breaker_options(int strikes, std::uint64_t probation_ms) {
  ensure_backends();
  EngineOptions options;
  options.backends = {"q-fast", "q-slow"};
  options.measure_costs = false;
  options.quarantine_strikes = strikes;
  options.probation_ms = probation_ms;
  return options;
}

std::vector<double> reference_wht(int n, const std::vector<double>& input) {
  std::vector<double> out = input;
  Transform reference(Planner().backend("generated").plan(n));
  reference.execute(out.data());
  return out;
}

class EngineQuarantineTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm(); }
  void TearDown() override { fault::disarm(); }
};

TEST_F(EngineQuarantineTest, OptionsAreValidated) {
  ensure_backends();
  EngineOptions bad = breaker_options(2, 60000);
  bad.quarantine_strikes = -1;
  EXPECT_THROW(Engine{bad}, std::invalid_argument);
  bad = breaker_options(2, 60000);
  bad.probation_ms = 0;
  EXPECT_THROW(Engine{bad}, std::invalid_argument);
}

TEST_F(EngineQuarantineTest, FailureFallsBackBitExactly) {
  Engine engine(breaker_options(/*strikes=*/3, /*probation_ms=*/60000));
  fault::arm("engine.exec.q-fast=always");

  const int n = 6;
  const auto input = random_vector(std::size_t{1} << n, 11);
  const auto expected = reference_wht(n, input);
  auto x = input;
  engine.execute(n, x.data());  // q-fast wins, fails, generated re-runs
  EXPECT_EQ(0, std::memcmp(x.data(), expected.data(),
                           expected.size() * sizeof(double)));

  const auto stats = engine.stats();
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.per_backend.at("generated"), 1u)
      << "the serve must be recorded under the backend that ran it";
  EXPECT_TRUE(stats.quarantined.empty()) << "one strike of three";
}

TEST_F(EngineQuarantineTest, RepeatedFailuresQuarantineAndFailOver) {
  Engine engine(breaker_options(/*strikes=*/2, /*probation_ms=*/60000));
  fault::arm("engine.exec.q-fast=always");

  const int n = 6;
  for (int i = 0; i < 2; ++i) {
    auto x = random_vector(std::size_t{1} << n, 20 + i);
    engine.execute(n, x.data());
  }
  auto stats = engine.stats();
  EXPECT_EQ(stats.quarantine_trips.at("q-fast"), 1u);
  ASSERT_EQ(stats.quarantined.size(), 1u);
  EXPECT_EQ(stats.quarantined[0], "q-fast");

  // Quarantined: the arbiter must not route to q-fast any more — the
  // runner-up serves directly (no further failures or fallbacks).
  const auto decision = engine.arbitrate(n, 1);
  EXPECT_EQ(decision.backend, "q-slow");
  const auto input = random_vector(std::size_t{1} << n, 33);
  auto x = input;
  engine.execute(n, x.data());
  EXPECT_EQ(0, std::memcmp(x.data(), reference_wht(n, input).data(),
                           x.size() * sizeof(double)));
  stats = engine.stats();
  EXPECT_EQ(stats.failures, 2u) << "q-slow serves cleanly";
  EXPECT_GE(stats.per_backend.at("q-slow"), 1u);
}

TEST_F(EngineQuarantineTest, ProbationProbeClearsQuarantine) {
  Engine engine(breaker_options(/*strikes=*/1, /*probation_ms=*/50));
  fault::arm("engine.exec.q-fast=once");

  const int n = 6;
  auto x = random_vector(std::size_t{1} << n, 5);
  engine.execute(n, x.data());  // the one injected failure: trip
  ASSERT_EQ(engine.stats().quarantined.size(), 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  // Probation elapsed and the fault is spent: the arbiter re-probes q-fast
  // with live traffic, the probe succeeds, the breaker clears.
  const auto decision = engine.arbitrate(n, 1);
  EXPECT_EQ(decision.backend, "q-fast");
  auto y = random_vector(std::size_t{1} << n, 6);
  engine.execute(n, y.data());
  const auto stats = engine.stats();
  EXPECT_TRUE(stats.quarantined.empty());
  EXPECT_EQ(stats.quarantine_trips.at("q-fast"), 1u);
}

TEST_F(EngineQuarantineTest, FailedProbeRetripsImmediately) {
  Engine engine(breaker_options(/*strikes=*/2, /*probation_ms=*/50));
  fault::arm("engine.exec.q-fast=always");

  const int n = 6;
  for (int i = 0; i < 2; ++i) {
    auto x = random_vector(std::size_t{1} << n, 40 + i);
    engine.execute(n, x.data());
  }
  ASSERT_EQ(engine.stats().quarantine_trips.at("q-fast"), 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  // The probe fails (fault still armed): ONE failure re-trips — the trip
  // left the strike count at the threshold, no fresh streak needed.
  auto x = random_vector(std::size_t{1} << n, 50);
  engine.execute(n, x.data());
  const auto stats = engine.stats();
  EXPECT_EQ(stats.quarantine_trips.at("q-fast"), 2u);
  ASSERT_EQ(stats.quarantined.size(), 1u);
}

TEST_F(EngineQuarantineTest, VerifyFiniteCatchesCorruptOutput) {
  Engine engine(breaker_options(/*strikes=*/1, /*probation_ms=*/60000));
  fault::arm("engine.corrupt.q-fast=once");

  const int n = 6;
  const auto input = random_vector(std::size_t{1} << n, 9);
  const auto expected = reference_wht(n, input);
  auto x = input;
  engine.execute(n, x.data());
  // The corrupt (NaN) output was detected, the input restored from the
  // snapshot, and the reference backend produced the true result.
  EXPECT_EQ(0, std::memcmp(x.data(), expected.data(),
                           expected.size() * sizeof(double)));
  const auto stats = engine.stats();
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_EQ(stats.quarantine_trips.at("q-fast"), 1u);
}

TEST_F(EngineQuarantineTest, NonFiniteInputIsTheCallersBusiness) {
  Engine engine(breaker_options(/*strikes=*/1, /*probation_ms=*/60000));

  const int n = 4;
  auto x = random_vector(std::size_t{1} << n, 3);
  x[2] = std::numeric_limits<double>::quiet_NaN();
  engine.execute(n, x.data());  // NaN in, NaN out — not a backend failure
  EXPECT_TRUE(std::isnan(x[0]) || std::isnan(x[2]));
  const auto stats = engine.stats();
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_TRUE(stats.quarantined.empty());
}

TEST_F(EngineQuarantineTest, SubmitPathFallsBackToo) {
  Engine engine(breaker_options(/*strikes=*/3, /*probation_ms=*/60000));
  fault::arm("engine.exec.q-fast=always");

  const int n = 5;
  const auto input = random_vector(std::size_t{1} << n, 77);
  const auto expected = reference_wht(n, input);
  auto x = input;
  auto done = engine.submit(n, x.data());
  done.get();  // the caller's run absorbed the failure; no exception
  EXPECT_EQ(0, std::memcmp(x.data(), expected.data(),
                           expected.size() * sizeof(double)));
  EXPECT_GE(engine.stats().fallbacks, 1u);
}

TEST_F(EngineQuarantineTest, DisabledBreakerPropagatesExceptions) {
  Engine engine(breaker_options(/*strikes=*/0, /*probation_ms=*/2000));
  fault::arm("engine.exec.q-fast=always");
  auto x = random_vector(std::size_t{1} << 5, 1);
  EXPECT_THROW(engine.execute(5, x.data()), std::runtime_error)
      << "strikes == 0 must mean exactly the pre-breaker behavior";
}

TEST_F(EngineQuarantineTest, DisabledBreakerLeavesOutputUnchecked) {
  Engine engine(breaker_options(/*strikes=*/0, /*probation_ms=*/2000));
  fault::arm("engine.corrupt.q-fast=once");
  auto x = random_vector(std::size_t{1} << 6, 9);
  engine.execute(6, x.data());
  // No breaker, no scan: the corrupt output is what the caller gets.
  EXPECT_TRUE(std::isnan(x[0]));
  const auto stats = engine.stats();
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

}  // namespace
}  // namespace whtlab::api
