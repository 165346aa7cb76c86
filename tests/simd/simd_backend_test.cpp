// Exhaustive parity of the SIMD executor against the scalar interpreter:
// every size up to 2^20, several plan shapes per size, in-place / strided /
// out-of-place / batched paths, at every SIMD level this host can dispatch
// to.  Equality is bitwise (ASSERT_EQ on doubles): the SIMD walk performs
// the same butterflies in the same stage order, so there is no tolerance to
// hide an alignment or indexing bug behind.  The whole suite also runs
// under the CI ASan/UBSan job, which is what catches lane overruns.
#include "simd/simd_executor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "api/wht.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "simd/cpu_features.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace whtlab::simd {
namespace {

std::vector<SimdLevel> dispatchable_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (detected_level() >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  if (detected_level() >= SimdLevel::kAvx512) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

/// A cross-section of the plan space at size 2^n: deep unit-stride chains
/// (right recursive), maximal stride accumulation (iterative), big leaves,
/// mixed trees, and the whole vector as one leaf (either side of each
/// ISA's KernelSet::scalar_leaf_max crossover).
std::vector<core::Plan> plan_shapes(int n) {
  std::vector<core::Plan> plans;
  if (n <= core::kMaxUnrolled) plans.push_back(core::Plan::small(n));
  plans.push_back(core::Plan::right_recursive(n));
  plans.push_back(core::Plan::left_recursive(n));
  plans.push_back(core::Plan::iterative(n));
  plans.push_back(core::Plan::balanced_binary(n, 4));
  if (n > core::kMaxUnrolled) {
    plans.push_back(core::Plan::iterative_radix(n, core::kMaxUnrolled));
  }
  return plans;
}

class ForcedLevel {
 public:
  explicit ForcedLevel(SimdLevel level) { force_level(level); }
  ~ForcedLevel() { reset_forced_level(); }
};

class SimdParityTest : public ::testing::TestWithParam<SimdLevel> {};

TEST_P(SimdParityTest, AllSizesAllShapesUnitStride) {
  const SimdLevel level = GetParam();
  for (int n = 1; n <= 20; ++n) {
    for (const core::Plan& plan : plan_shapes(n)) {
      util::AlignedBuffer x(plan.size());
      util::AlignedBuffer reference(plan.size());
      util::Rng rng(static_cast<std::uint64_t>(n) * 131 + 7);
      for (std::uint64_t i = 0; i < plan.size(); ++i) {
        x[i] = reference[i] = rng.uniform(-1, 1);
      }
      execute(plan, x.data(), 1, level);
      core::execute(plan, reference.data());
      for (std::uint64_t i = 0; i < plan.size(); ++i) {
        ASSERT_EQ(x[i], reference[i])
            << "level=" << to_string(level) << " n=" << n
            << " plan=" << plan.to_string() << " i=" << i;
      }
    }
  }
}

TEST_P(SimdParityTest, StridedLeavesGapsUntouched) {
  const SimdLevel level = GetParam();
  for (int n = 1; n <= 12; ++n) {
    for (const std::ptrdiff_t stride : {2, 3, 7}) {
      const core::Plan plan = core::Plan::balanced_binary(n, 4);
      const std::uint64_t size = plan.size();
      util::AlignedBuffer strided(size * static_cast<std::uint64_t>(stride));
      util::AlignedBuffer dense(size);
      util::Rng rng(static_cast<std::uint64_t>(n) * 17 + 3);
      strided.fill(-9.0);  // sentinels between the strided elements
      for (std::uint64_t i = 0; i < size; ++i) {
        const double v = rng.uniform(-1, 1);
        strided[i * static_cast<std::uint64_t>(stride)] = v;
        dense[i] = v;
      }
      execute(plan, strided.data(), stride, level);
      core::execute(plan, dense.data());
      for (std::uint64_t i = 0; i < size; ++i) {
        ASSERT_EQ(strided[i * static_cast<std::uint64_t>(stride)], dense[i])
            << "level=" << to_string(level) << " n=" << n
            << " stride=" << stride << " i=" << i;
      }
      for (std::uint64_t i = 0; i + 1 < size; ++i) {
        for (std::ptrdiff_t off = 1; off < stride; ++off) {
          ASSERT_EQ(strided[i * static_cast<std::uint64_t>(stride) +
                            static_cast<std::uint64_t>(off)],
                    -9.0)
              << "sentinel clobbered at i=" << i << " off=" << off;
        }
      }
    }
  }
}

TEST_P(SimdParityTest, ExecuteManyInterleavedAndRemainder) {
  const SimdLevel level = GetParam();
  const ForcedLevel forced(level);
  // Counts straddle the interleave width on every level: remainders of all
  // residues mod 4 and mod 8, plus fewer-than-a-group batches.
  for (int n : {1, 4, 8, 10, 12}) {
    const core::Plan plan = core::Plan::balanced_binary(n, 4);
    const std::uint64_t size = plan.size();
    for (std::size_t count : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                              std::size_t{8}, std::size_t{13}, std::size_t{17}}) {
      for (const std::uint64_t pad : {std::uint64_t{0}, std::uint64_t{5}}) {
        const std::uint64_t dist = size + pad;
        util::AlignedBuffer batch(count * dist);
        std::vector<double> reference(count * dist, -4.0);
        util::Rng rng(static_cast<std::uint64_t>(n) * 1000 + count);
        batch.fill(-4.0);  // pad sentinels
        for (std::size_t v = 0; v < count; ++v) {
          for (std::uint64_t i = 0; i < size; ++i) {
            const double value = rng.uniform(-1, 1);
            batch[v * dist + i] = reference[v * dist + i] = value;
          }
        }
        for (int threads : {1, 3}) {
          util::AlignedBuffer work(count * dist);
          for (std::uint64_t i = 0; i < count * dist; ++i) work[i] = batch[i];
          execute_many(plan, work.data(), count,
                       static_cast<std::ptrdiff_t>(dist), threads);
          for (std::size_t v = 0; v < count; ++v) {
            std::vector<double> expect(reference.begin() + v * dist,
                                       reference.begin() + v * dist + size);
            core::execute(plan, expect.data());
            for (std::uint64_t i = 0; i < size; ++i) {
              ASSERT_EQ(work[v * dist + i], expect[i])
                  << "level=" << to_string(level) << " n=" << n
                  << " count=" << count << " pad=" << pad
                  << " threads=" << threads << " v=" << v << " i=" << i;
            }
            for (std::uint64_t i = size; i < dist; ++i) {
              ASSERT_EQ(work[v * dist + i], -4.0) << "pad clobbered";
            }
          }
        }
      }
    }
  }
}

TEST_P(SimdParityTest, ExecuteManyLargeSizeFallbackPath) {
  // n*width beyond the interleave scratch cap takes the per-vector path.
  const SimdLevel level = GetParam();
  const ForcedLevel forced(level);
  const core::Plan plan = core::Plan::balanced_binary(20, 8);
  const std::uint64_t size = plan.size();
  const std::size_t count = 3;
  util::AlignedBuffer work(count * size);
  std::vector<double> reference(count * size);
  util::Rng rng(99);
  for (std::uint64_t i = 0; i < count * size; ++i) {
    work[i] = reference[i] = rng.uniform(-1, 1);
  }
  execute_many(plan, work.data(), count, static_cast<std::ptrdiff_t>(size), 2);
  for (std::size_t v = 0; v < count; ++v) {
    core::execute(plan, reference.data() + v * size);
    for (std::uint64_t i = 0; i < size; ++i) {
      ASSERT_EQ(work[v * size + i], reference[v * size + i]) << v << " " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DispatchableLevels, SimdParityTest,
                         ::testing::ValuesIn(dispatchable_levels()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(SimdBackendFacade, RegisteredAndRoutesExecuteMany) {
  auto& registry = api::BackendRegistry::global();
  ASSERT_TRUE(registry.contains("simd"));
  auto t = api::Planner().backend("simd").plan(10);
  EXPECT_EQ(t.backend_name(), "simd");

  const std::size_t count = 9;  // 8 + 4 + 1 across widths
  std::vector<double> batch(count * t.size());
  util::Rng rng(7);
  for (auto& v : batch) v = rng.uniform(-1, 1);
  std::vector<double> reference = batch;

  t.execute_many(batch.data(), count);
  auto scalar = api::Planner().fixed(t.plan()).backend("generated").plan();
  scalar.execute_many(reference.data(), count);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch[i], reference[i]) << i;
  }
}

TEST(SimdBackendFacade, ExecuteCopyAndApplyMatchGenerated) {
  auto simd_t = api::Planner().fixed(core::Plan::balanced_binary(11, 5))
                    .backend("simd")
                    .plan();
  auto scalar_t = api::Planner().fixed(simd_t.plan()).plan();
  std::vector<double> in(simd_t.size());
  util::Rng rng(19);
  for (auto& v : in) v = rng.uniform(-1, 1);
  std::vector<double> out_simd(simd_t.size());
  std::vector<double> out_scalar(simd_t.size());
  simd_t.execute_copy(in.data(), out_simd.data());
  scalar_t.execute_copy(in.data(), out_scalar.data());
  EXPECT_EQ(out_simd, out_scalar);
  EXPECT_EQ(simd_t.apply(in), scalar_t.apply(in));
}

TEST(SimdBackendFacade, ThreadsFanOutBatchChunks) {
  api::BackendOptions options;
  options.threads = 4;
  auto backend = api::BackendRegistry::global().create("simd", options);
  const core::Plan plan = core::Plan::balanced_binary(9, 4);
  const std::size_t count = 33;
  std::vector<double> batch(count * plan.size());
  util::Rng rng(23);
  for (auto& v : batch) v = rng.uniform(-1, 1);
  std::vector<double> reference = batch;
  backend->run_many(plan, batch.data(), count,
                    static_cast<std::ptrdiff_t>(plan.size()));
  for (std::size_t v = 0; v < count; ++v) {
    core::execute(plan, reference.data() + v * plan.size());
  }
  EXPECT_EQ(batch, reference);
}

}  // namespace
}  // namespace whtlab::simd
