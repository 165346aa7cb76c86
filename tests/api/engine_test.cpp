// wht::Engine: shared plan cache, serve-time backend arbitration by request
// shape, submit() serving on its caller, the n-range gate, wisdom prewarm,
// and thread-safety of the whole serving surface, exact striped counters
// included (runs under the TSan CI job).
#include "api/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <future>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/executor_backend.hpp"
#include "api/planner.hpp"
#include "api/wisdom.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "core/verify.hpp"
#include "simd/cpu_features.hpp"
#include "util/rng.hpp"

namespace whtlab::api {
namespace {

using util::random_vector;

/// Correct executor with a scripted cost shape, so arbitration decisions
/// are deterministic regardless of host ISA and measurement noise.
class ScriptedBackend final : public ExecutorBackend {
 public:
  ScriptedBackend(std::string name, double unit_cost, double batched_factor)
      : name_(std::move(name)),
        unit_cost_(unit_cost),
        batched_factor_(batched_factor) {}

  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x, std::ptrdiff_t stride,
           ExecContext& /*ctx*/) const override {
    core::execute_node(plan.root(), x, stride, core::codelet_table());
  }

  std::function<double(const core::Plan&)> cost_model() const override {
    const double cost = unit_cost_;
    return [cost](const core::Plan&) { return cost; };
  }

  double batch_factor(const core::Plan& /*plan*/, std::size_t count,
                      int /*threads*/) const override {
    return count >= 4 ? batched_factor_ : 1.0;
  }

 private:
  std::string name_;
  double unit_cost_;
  double batched_factor_;
};

/// Two candidates with crossing cost curves: "scripted-single" wins lone
/// vectors, "scripted-batch" wins batches of four or more.
void ensure_scripted_backends() {
  auto& registry = BackendRegistry::global();
  if (registry.contains("scripted-single")) return;
  registry.register_factory("scripted-single", [](const BackendOptions&) {
    return std::make_unique<ScriptedBackend>("scripted-single", 100.0, 1.0);
  });
  registry.register_factory("scripted-batch", [](const BackendOptions&) {
    return std::make_unique<ScriptedBackend>("scripted-batch", 1000.0, 0.01);
  });
}

EngineOptions scripted_options() {
  ensure_scripted_backends();
  EngineOptions options;
  options.backends = {"scripted-single", "scripted-batch"};
  options.measure_costs = false;  // compare the scripted models verbatim
  return options;
}

/// Test-owned knobs of the "scripted-gate" backend: while g_gate_closed is
/// set, each run() that claims one of g_gate_parks' remaining parks waits
/// (counting itself in g_gate_parked) until it clears; while g_gate_fail is
/// set every run() throws.
std::atomic<bool> g_gate_closed{false};
std::atomic<int> g_gate_parks{0};
std::atomic<int> g_gate_parked{0};
std::atomic<bool> g_gate_fail{false};

/// Correct executor the test can freeze or break mid-serve, so overlapping
/// calls are forced rather than raced for.
class GateBackend final : public ExecutorBackend {
 public:
  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x, std::ptrdiff_t stride,
           ExecContext& /*ctx*/) const override {
    if (g_gate_fail.load()) throw std::runtime_error("gate backend failed");
    if (g_gate_closed.load() && g_gate_parks.fetch_sub(1) > 0) {
      g_gate_parked.fetch_add(1);
      while (g_gate_closed.load()) std::this_thread::yield();
    }
    core::execute_node(plan.root(), x, stride, core::codelet_table());
  }

  std::function<double(const core::Plan&)> cost_model() const override {
    return [](const core::Plan&) { return 1.0; };
  }

 private:
  std::string name_ = "scripted-gate";
};

EngineOptions gate_options() {
  auto& registry = BackendRegistry::global();
  if (!registry.contains("scripted-gate")) {
    registry.register_factory("scripted-gate", [](const BackendOptions&) {
      return std::make_unique<GateBackend>();
    });
  }
  g_gate_closed.store(false);
  g_gate_parks.store(0);
  g_gate_parked.store(0);
  g_gate_fail.store(false);
  EngineOptions options;
  options.backends = {"scripted-gate"};
  options.measure_costs = false;  // first touch must not run the backend
  return options;
}

bool is_ready(const std::future<void>& future) {
  return future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

void ensure_broken_backend() {
  auto& registry = BackendRegistry::global();
  if (!registry.contains("scripted-broken")) {
    registry.register_factory(
        "scripted-broken", [](const BackendOptions&) -> std::unique_ptr<ExecutorBackend> {
          throw std::runtime_error("backend hardware went away");
        });
  }
}

TEST(EngineArbitration, BrokenCandidateIsSkippedNotFatal) {
  ensure_scripted_backends();
  ensure_broken_backend();
  EngineOptions options;
  options.backends = {"scripted-single", "scripted-broken"};
  options.measure_costs = false;
  Engine engine(options);

  // The healthy candidate serves; the broken one is absent from the
  // ranking instead of poisoning the whole size.
  const auto decision = engine.arbitrate(8, 1);
  EXPECT_EQ(decision.backend, "scripted-single");
  EXPECT_EQ(decision.candidates.size(), 1u);
  auto x = random_vector(1u << 8, 7);
  engine.execute(8, x.data());  // must not throw
}

TEST(EngineArbitration, PicksDifferentBackendsForDifferentShapes) {
  Engine engine(scripted_options());

  const auto single = engine.arbitrate(8, 1);
  EXPECT_EQ(single.backend, "scripted-single");
  EXPECT_DOUBLE_EQ(single.cost, 100.0);

  const auto batch = engine.arbitrate(8, 8);
  EXPECT_EQ(batch.backend, "scripted-batch");
  EXPECT_DOUBLE_EQ(batch.cost, 1000.0 * 8 * 0.01);

  // Both candidates are priced and ranked cheapest-first.
  ASSERT_EQ(batch.candidates.size(), 2u);
  EXPECT_EQ(batch.candidates[0].backend, batch.backend);
  EXPECT_LE(batch.candidates[0].cost, batch.candidates[1].cost);
}

TEST(EngineArbitration, RoutingFollowsTheDecision) {
  Engine engine(scripted_options());
  const std::uint64_t n = 1u << 8;
  auto single = random_vector(n, 1);
  engine.execute(8, single.data());
  auto batch = random_vector(n * 8, 2);
  engine.execute_many(8, batch.data(), 8);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.per_backend.at("scripted-single"), 1u);
  EXPECT_EQ(stats.per_backend.at("scripted-batch"), 8u);
  EXPECT_EQ(stats.vectors, 9u);
  EXPECT_EQ(stats.singles, 1u);
  EXPECT_EQ(stats.batches, 1u);
}

TEST(EngineArbitration, RealBackendsPriceEveryCandidate) {
  // With measured anchors the units are cycles for every candidate; the
  // winner must be the cheapest and all costs finite and positive.
  EngineOptions options;
  options.backends = {"generated", "simd", "fused"};
  Engine engine(options);
  for (const auto& [n, count] : {std::pair<int, std::size_t>{6, 16},
                                 std::pair<int, std::size_t>{12, 1}}) {
    const auto decision = engine.arbitrate(n, count);
    ASSERT_EQ(decision.candidates.size(), 3u) << n;
    EXPECT_EQ(decision.backend, decision.candidates[0].backend);
    for (const auto& candidate : decision.candidates) {
      EXPECT_GT(candidate.cost, 0.0) << candidate.backend;
      EXPECT_LE(decision.candidates[0].cost, candidate.cost);
    }
  }
}

TEST(Engine, ExecuteMatchesSharedTransformSerial) {
  EngineOptions options;
  options.backends = {"generated"};
  options.measure_costs = false;
  Engine engine(options);

  const auto transform = engine.transform(10, "generated");
  const auto input = random_vector(transform->size(), 3);
  auto reference = input;
  transform->execute(reference.data());

  auto served = input;
  engine.execute(10, served.data());
  EXPECT_EQ(served, reference);

  // The plan cache hands back the same shared instance.
  EXPECT_EQ(engine.transform(10, "generated").get(), transform.get());
}

TEST(Engine, NonCandidateIsPlannedUnpricedAndUnrecorded) {
  // transform(n, b) for a registered backend outside the candidates plans
  // b alone: no anchor and no telemetry series, and the candidates' own
  // first touch of n still happens in full afterwards.
  EngineOptions options;
  options.backends = {"simd", "fused"};
  Engine engine(options);

  const auto transform = engine.transform(12, "generated");
  ASSERT_NE(transform, nullptr);
  EXPECT_EQ(transform->backend_name(), "generated");
  EXPECT_EQ(engine.transform(12, "generated").get(), transform.get());
  auto served = random_vector(transform->size(), 12);
  auto reference = served;
  transform->execute(served.data());
  core::fast_wht_reference(12, reference.data());
  EXPECT_EQ(served, reference);
  EXPECT_TRUE(engine.telemetry_snapshot().empty());

  const auto decision = engine.arbitrate(12);
  ASSERT_EQ(decision.candidates.size(), 2u);
  for (const auto& candidate : decision.candidates) {
    EXPECT_GT(candidate.cost, 0.0) << candidate.backend;
  }
  std::set<std::string> recorded;
  for (const auto& series : engine.telemetry_snapshot()) {
    EXPECT_EQ(series.n, 12);
    recorded.insert(series.backend);
  }
  EXPECT_EQ(recorded, (std::set<std::string>{"fused", "simd"}));
}

TEST(Engine, DefaultCandidatesAreTheBackendsThatCanWin) {
  // "simd" runs the generated codelet on the small leaves where it beats
  // the vector walk, so a default Engine neither plans nor times the
  // reference walk.
  Engine engine;
  EXPECT_EQ(engine.candidates(), (std::vector<std::string>{"simd", "fused"}));
  EngineOptions threaded;
  threaded.threads = 2;
  const Engine split(threaded);
  EXPECT_EQ(split.candidates(),
            (std::vector<std::string>{"simd", "fused", "parallel"}));

  const auto decision = engine.arbitrate(3, 1);
  ASSERT_EQ(decision.candidates.size(), 2u);
  for (const auto& candidate : decision.candidates) {
    EXPECT_NE(candidate.backend, "generated");
  }
  const auto series = engine.telemetry_snapshot();
  EXPECT_FALSE(series.empty());
  for (const auto& s : series) EXPECT_NE(s.backend, "generated") << s.n;

  // Still registered: the reference is planned on demand and shared.
  const auto reference = engine.transform(3, "generated");
  ASSERT_NE(reference, nullptr);
  EXPECT_EQ(reference->backend_name(), "generated");
  EXPECT_EQ(engine.transform(3, "generated").get(), reference.get());
}

TEST(Engine, PointerArrayExecuteManyMatchesSharedTransform) {
  EngineOptions options;
  options.backends = {"generated", "simd", "fused"};
  Engine engine(options);

  constexpr int kN = 7;
  const auto transform = engine.transform(kN, "generated");
  ExecContext ctx;
  for (const std::size_t count : {std::size_t{1}, std::size_t{8}}) {
    // Separately allocated vectors: the gather path must stage, run and
    // scatter each back to its own buffer.
    std::vector<std::vector<double>> buffers;
    std::vector<double*> xs;
    for (std::size_t v = 0; v < count; ++v) {
      buffers.push_back(random_vector(transform->size(), 40 + v));
    }
    std::vector<std::vector<double>> expected = buffers;
    for (auto& e : expected) transform->execute(e.data());
    for (auto& b : buffers) xs.push_back(b.data());

    engine.execute_many(kN, xs.data(), count, ctx);
    for (std::size_t v = 0; v < count; ++v) {
      EXPECT_EQ(buffers[v], expected[v])
          << "count " << count << " vector " << v;
    }
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.singles, 1u);  // count 1: a plain single
  EXPECT_EQ(stats.batches, 1u);  // count 8: ONE staged batch
  EXPECT_EQ(stats.vectors, 9u);
}

TEST(Engine, OverlappingSubmitRunsOnItsOwnCaller) {
  Engine engine(gate_options());
  constexpr int kN = 6;
  const auto transform = engine.transform(kN, "scripted-gate");
  engine.arbitrate(kN, 1);  // first touch paid before the gate closes
  const auto input = random_vector(1u << kN, 4);
  auto reference = input;
  transform->execute(reference.data());

  // Thread A's submit() parks in the backend; the gate parks no other run.
  g_gate_parks.store(1);
  g_gate_closed.store(true);
  auto first = input;
  std::future<void> first_done;
  std::thread parked([&] { first_done = engine.submit(kN, first.data()); });
  while (g_gate_parked.load() == 0) std::this_thread::yield();

  // Submits that overlap A's serve on this thread: each has run by the
  // time it returns, though A still holds the backend.
  std::vector<std::vector<double>> buffers(7, input);
  std::vector<std::future<void>> futures;
  for (auto& buffer : buffers) {
    futures.push_back(engine.submit(kN, buffer.data()));
    const bool ready = is_ready(futures.back());
    EXPECT_TRUE(ready) << "an overlapping submit() waited on another thread";
    if (ready) {
      EXPECT_EQ(buffer, reference);
    }
  }
  EXPECT_EQ(g_gate_parked.load(), 1);

  g_gate_closed.store(false);
  parked.join();
  ASSERT_TRUE(is_ready(first_done));
  first_done.get();
  EXPECT_EQ(first, reference);
  for (auto& future : futures) future.get();
  for (const auto& buffer : buffers) EXPECT_EQ(buffer, reference);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.vectors, 8u);
}

TEST(Engine, LoneSubmitHasRunWhenItReturns) {
  Engine engine(gate_options());
  constexpr int kN = 7;
  const auto input = random_vector(1u << kN, 8);
  auto reference = input;
  engine.transform(kN, "scripted-gate")->execute(reference.data());
  for (int i = 0; i < 3; ++i) {
    auto x = input;
    auto done = engine.submit(kN, x.data());
    ASSERT_TRUE(is_ready(done)) << "no thread hop, no window";
    done.get();
    EXPECT_EQ(x, reference);
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.coalesced, 0u);
}

TEST(Engine, ThrowingGroupLeavesTheEngineServing) {
  Engine engine(gate_options());
  constexpr int kN = 5;
  engine.arbitrate(kN, 1);
  auto x = random_vector(1u << kN, 9);
  g_gate_fail.store(true);
  auto failed = engine.submit(kN, x.data());
  ASSERT_TRUE(is_ready(failed));
  EXPECT_THROW(failed.get(), std::runtime_error);

  // The failure left nothing behind: the next submit() serves.
  g_gate_fail.store(false);
  auto y = random_vector(1u << kN, 10);
  auto reference = y;
  engine.transform(kN, "scripted-gate")->execute(reference.data());
  auto done = engine.submit(kN, y.data());
  ASSERT_TRUE(is_ready(done));
  done.get();
  EXPECT_EQ(y, reference);
}

TEST(Engine, SubmitErrorsSurfaceThroughTheFuture) {
  ensure_broken_backend();
  EngineOptions options;
  options.backends = {"scripted-broken"};
  options.measure_costs = false;
  Engine engine(options);
  double dummy = 0.0;
  auto future = engine.submit(4, &dummy);  // every candidate fails to build
  EXPECT_THROW(future.get(), std::runtime_error);
  EXPECT_THROW(engine.submit(30, &dummy), std::invalid_argument);
  EXPECT_THROW(engine.submit(0, &dummy), std::invalid_argument);
}

TEST(Engine, RejectsOutOfRangeSizesAtEveryEntryPoint) {
  EngineOptions options;
  options.backends = {"generated"};
  options.measure_costs = false;
  Engine engine(options);
  double buffer[2] = {1.0, 2.0};
  double* xs[1] = {buffer};
  ExecContext ctx;
  // Each bad n is refused before any shift by it (UBSan: shift exponent)
  // and before any cache cell is created for it.
  for (const int n : {-1, 0, kMaxLog2Size + 1, 64}) {
    EXPECT_THROW(engine.execute(n, buffer), std::invalid_argument) << n;
    EXPECT_THROW(engine.execute_many(n, buffer, 1), std::invalid_argument) << n;
    EXPECT_THROW(engine.execute_many(n, buffer, 1, 2), std::invalid_argument)
        << n;
    EXPECT_THROW(engine.execute_many(n, buffer, 1, 2, ctx),
                 std::invalid_argument)
        << n;
    EXPECT_THROW(engine.execute_many(n, xs, 1, ctx), std::invalid_argument)
        << n;
    EXPECT_THROW(engine.submit(n, buffer), std::invalid_argument) << n;
    EXPECT_THROW(engine.arbitrate(n, 1), std::invalid_argument) << n;
    EXPECT_THROW(engine.transform(n, "generated"), std::invalid_argument) << n;
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.vectors, 0u);
  EXPECT_EQ(stats.submitted, 0u);
}

TEST(Engine, RejectsUnknownCandidates) {
  EngineOptions options;
  options.backends = {"no-such-backend"};
  EXPECT_THROW(Engine{options}, std::invalid_argument);
}

TEST(Engine, ConcurrentMixedServingIsCorrect) {
  EngineOptions options;
  options.backends = {"generated", "simd"};
  options.measure_costs = false;
  Engine engine(options);

  constexpr int kN = 9;
  constexpr int kThreads = 8;
  constexpr int kRounds = 12;
  constexpr std::size_t kBatch = 4;
  const std::uint64_t size = 1u << kN;
  const auto input = random_vector(size, 5);
  auto reference = input;
  engine.transform(kN, engine.arbitrate(kN, 1).backend)->execute(reference.data());

  // Every thread cycles execute / execute_many / submit, so the striped
  // counters and the route table race each other.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t]() {
      std::vector<double> work(size);
      std::vector<double> batch(size * kBatch);
      for (int i = 0; i < kRounds; ++i) {
        switch ((t + i) % 3) {
          case 0:
            work = input;
            engine.execute(kN, work.data());
            if (work != reference) mismatches.fetch_add(1);
            break;
          case 1:
            for (std::size_t v = 0; v < kBatch; ++v) {
              std::copy(input.begin(), input.end(), batch.begin() + v * size);
            }
            engine.execute_many(kN, batch.data(), kBatch);
            for (std::size_t v = 0; v < kBatch; ++v) {
              if (!std::equal(reference.begin(), reference.end(),
                              batch.begin() + v * size)) {
                mismatches.fetch_add(1);
              }
            }
            break;
          default:
            work = input;
            engine.submit(kN, work.data()).get();
            if (work != reference) mismatches.fetch_add(1);
            break;
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);

  std::uint64_t singles = 0, many = 0, submits = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kRounds; ++i) {
      const int kind = (t + i) % 3;
      singles += kind == 0;
      many += kind == 1;
      submits += kind == 2;
    }
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.vectors, singles + many * kBatch + submits);
  EXPECT_EQ(stats.singles, singles);
  EXPECT_EQ(stats.submitted, submits);
  EXPECT_EQ(stats.batches, many);
  std::uint64_t per_backend = 0;
  for (const auto& [backend, vectors] : stats.per_backend) {
    per_backend += vectors;
  }
  EXPECT_EQ(per_backend, stats.vectors);
}

/// Writes a wisdom file holding `keys`, each with the iterative plan of its
/// size, and returns its path.
std::string wisdom_with(const std::string& name,
                        const std::vector<Wisdom::Key>& keys) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  Wisdom wisdom;
  for (const Wisdom::Key& key : keys) {
    wisdom.insert(key, core::Plan::iterative(key.n));
  }
  wisdom.save(path);
  return path;
}

TEST(EnginePrewarm, ARecordedSizeWarmsEveryCandidate) {
  // "fused" records no wisdom, so one generated key at n = 12 must warm
  // all three candidates of n = 12, as the first touch of 12 would.
  const std::string cpu = simd::to_string(simd::active_level());
  EngineOptions options;
  options.backends = {"generated", "simd", "fused"};
  options.wisdom_file = wisdom_with("engine_prewarm_all.txt",
                                    {{cpu, 12, "estimate", "generated"}});
  Engine engine(options);
  EXPECT_EQ(engine.prewarm(), 3u);
  std::remove(options.wisdom_file.c_str());
}

TEST(EnginePrewarm, OtherCpusWarmNothing) {
  const std::string other_cpu =
      simd::active_level() == simd::SimdLevel::kScalar ? "avx2" : "scalar";
  EngineOptions options;
  options.backends = {"generated", "simd", "fused"};
  options.wisdom_file = wisdom_with("engine_prewarm_cpu.txt",
                                    {{other_cpu, 12, "estimate", "generated"}});
  Engine engine(options);
  EXPECT_EQ(engine.prewarm(), 0u);
  std::remove(options.wisdom_file.c_str());
}

TEST(EnginePrewarm, ThisCpusKeyOfAnyBackendWarmsTheDefaultCandidates) {
  // Wisdom seeded through the Planner's default backend holds "generated"
  // keys only, and "generated" is no default candidate: the size still
  // warms both default candidates, as its first touch would.
  const std::string cpu = simd::to_string(simd::active_level());
  for (const char* backend : {"generated", "parallel"}) {
    EngineOptions options;
    options.wisdom_file = wisdom_with("engine_prewarm_backend.txt",
                                      {{cpu, 12, "estimate", backend}});
    Engine engine(options);
    ASSERT_EQ(engine.candidates().size(), 2u);
    EXPECT_EQ(engine.prewarm(), 2u) << backend;
    std::remove(options.wisdom_file.c_str());
  }
}

}  // namespace
}  // namespace whtlab::api
