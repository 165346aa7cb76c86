// The concurrent-serving execution contract: one wht::Transform, many
// threads, no external locking — every backend, bit-identical to serial
// execution.  These suites are the ThreadSanitizer CI job's main workload
// (.github/workflows/ci.yml, WHTLAB_TSAN=ON).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/exec_context.hpp"
#include "api/executor_backend.hpp"
#include "api/planner.hpp"
#include "api/transform.hpp"
#include "core/codelet.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "util/rng.hpp"

namespace whtlab::api {
namespace {

using util::random_vector;

/// One shared Transform hammered from `threads` threads; every thread's
/// every output must equal the serial output of the same Transform.
void hammer(const Transform& transform, int threads, int iterations,
            std::uint64_t seed) {
  const std::uint64_t n = transform.size();
  const std::vector<double> input = random_vector(n, seed);
  std::vector<double> reference = input;
  transform.execute(reference.data());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&transform, &input, &reference, &mismatches,
                       iterations]() {
      std::vector<double> work(input.size());
      for (int i = 0; i < iterations; ++i) {
        work = input;
        transform.execute(work.data());
        if (work != reference) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(mismatches.load(), 0)
      << transform.backend_name() << " n=" << transform.log2_size();
}

class SharedTransformTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SharedTransformTest, EightThreadsBitIdenticalToSerial) {
  for (const int n : {10, 16}) {
    const core::Plan plan = core::Plan::balanced_binary(n, 4);
    const auto transform =
        Planner().fixed(plan).backend(GetParam()).threads(2).plan();
    hammer(transform, /*threads=*/8, /*iterations=*/n >= 16 ? 3 : 8,
           /*seed=*/static_cast<std::uint64_t>(n));
  }
}

TEST_P(SharedTransformTest, ConcurrentBatchesBitIdenticalToSerial) {
  const core::Plan plan = core::Plan::iterative_radix(9, 4);
  const std::uint64_t n = plan.size();
  constexpr std::size_t kBatch = 9;  // full SIMD groups plus a remainder
  const auto transform =
      Planner().fixed(plan).backend(GetParam()).threads(2).plan();

  const std::vector<double> input = random_vector(n * kBatch, 77);
  std::vector<double> reference = input;
  transform.execute_many(reference.data(), kBatch);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&]() {
      std::vector<double> work(input.size());
      for (int i = 0; i < 4; ++i) {
        work = input;
        transform.execute_many(work.data(), kBatch);
        if (work != reference) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(mismatches.load(), 0) << transform.backend_name();
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SharedTransformTest,
                         ::testing::Values("generated", "parallel", "simd",
                                           "fused"));

TEST(SharedTransform, ApplyIsSafeFromManyThreads) {
  // apply() stages through per-thread context scratch; concurrent calls
  // must neither race nor cross results.
  const core::Plan plan = core::Plan::balanced_binary(8, 4);
  const auto transform = Planner().fixed(plan).backend("simd").plan();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&, t]() {
      const auto input =
          random_vector(plan.size(), static_cast<std::uint64_t>(100 + t));
      auto reference = input;
      core::execute(plan, reference.data());
      for (int i = 0; i < 6; ++i) {
        if (transform.apply(input) != reference) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// What ReentrantProbeBackend saw during its last run_many.
struct ProbeRecord {
  const Transform* nested = nullptr;  ///< apply()d in the middle of run_many
  std::vector<double> nested_input;
  std::vector<double> nested_output;
  bool pattern_survived = false;
};
ProbeRecord g_probe;

/// "reentrant-probe": run_many fills ctx.scratch() with a pattern, makes a
/// context-less apply() on g_probe.nested in the middle, then checks the
/// pattern before running `generated` on every vector.  run(), which that
/// nested apply() reaches when g_probe.nested uses this backend too,
/// scribbles over its own context's scratch — so a nested call handed the
/// outer call's context destroys the pattern.
class ReentrantProbeBackend final : public ExecutorBackend {
 public:
  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x, std::ptrdiff_t stride,
           ExecContext& ctx) const override {
    double* scratch = ctx.scratch(kScratch);
    for (std::size_t i = 0; i < kScratch; ++i) scratch[i] = -1.0;
    core::execute_node(plan.root(), x, stride, core::codelet_table());
  }

  void run_many(const core::Plan& plan, double* x, std::size_t count,
                std::ptrdiff_t dist, ExecContext& ctx) const override {
    double* scratch = ctx.scratch(kScratch);
    for (std::size_t i = 0; i < kScratch; ++i) {
      scratch[i] = static_cast<double>(i);
    }
    g_probe.nested_output = g_probe.nested->apply(g_probe.nested_input);
    g_probe.pattern_survived = true;
    for (std::size_t i = 0; i < kScratch; ++i) {
      if (scratch[i] != static_cast<double>(i)) g_probe.pattern_survived = false;
    }
    for (std::size_t v = 0; v < count; ++v) {
      core::execute_node(plan.root(), x + static_cast<std::ptrdiff_t>(v) * dist,
                         1, core::codelet_table());
    }
  }

 private:
  static constexpr std::size_t kScratch = 64;
  std::string name_ = "reentrant-probe";
};

TEST(ThreadContext, ReentrantCallGetsADistinctContext) {
  auto& registry = BackendRegistry::global();
  if (!registry.contains("reentrant-probe")) {
    registry.register_factory("reentrant-probe", [](const BackendOptions&) {
      return std::make_unique<ReentrantProbeBackend>();
    });
  }
  const core::Plan plan = core::Plan::iterative(6);
  const core::Plan nested_plan = core::Plan::iterative(5);
  const auto outer = Planner().fixed(plan).backend("reentrant-probe").plan();
  const auto nested =
      Planner().fixed(nested_plan).backend("reentrant-probe").plan();
  g_probe = ProbeRecord{};
  g_probe.nested = &nested;
  g_probe.nested_input = random_vector(nested_plan.size(), 3);

  constexpr std::size_t kBatch = 3;
  std::vector<double> batch = random_vector(plan.size() * kBatch, 8);
  std::vector<double> reference = batch;
  outer.execute_many(batch.data(), kBatch);  // context-less: the thread's own
  for (std::size_t v = 0; v < kBatch; ++v) {
    core::execute(plan, reference.data() + v * plan.size());
  }
  EXPECT_TRUE(g_probe.pattern_survived);
  EXPECT_EQ(batch, reference);
  std::vector<double> nested_reference = g_probe.nested_input;
  core::execute(nested_plan, nested_reference.data());
  EXPECT_EQ(g_probe.nested_output, nested_reference);
}

TEST(ScratchArena, GrowsAndReuses) {
  util::ScratchArena arena;
  double* small = arena.acquire(16);
  ASSERT_NE(small, nullptr);
  const std::size_t cap = arena.capacity();
  EXPECT_GE(cap, 16u);
  EXPECT_EQ(arena.acquire(8), small);   // no shrink, same buffer
  EXPECT_EQ(arena.capacity(), cap);
  double* big = arena.acquire(4096);    // grows
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.capacity(), 4096u);
}

}  // namespace
}  // namespace whtlab::api
