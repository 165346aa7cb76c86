// AVX-512 gather/scatter strided-leaf parity: the vgatherqpd/vscatterqpd
// path must be bit-identical to the scalar codelets on every strided shape
// that reaches it — same butterflies, same stage order, EXPECT_EQ on
// doubles, exactly like the XOR-flip and lockstep kernels before it.
// Skipped (not failed) on hosts that do not dispatch AVX-512.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/codelet.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "simd/cpu_features.hpp"
#include "simd/simd_executor.hpp"
#include "util/rng.hpp"

namespace whtlab::simd {
namespace {

class ForcedLevel {
 public:
  explicit ForcedLevel(SimdLevel level) { force_level(level); }
  ~ForcedLevel() { reset_forced_level(); }
};

/// Runs `plan` strided through the SIMD executor and the scalar reference
/// on identical data; asserts bitwise equality everywhere (including the
/// untouched gap elements).
void expect_strided_parity(const core::Plan& plan, std::ptrdiff_t stride) {
  const std::uint64_t n = plan.size();
  const std::uint64_t extent =
      static_cast<std::uint64_t>(stride) * (n - 1) + 1;
  std::vector<double> x(extent), reference(extent);
  util::Rng rng(n * 1000 + static_cast<std::uint64_t>(stride));
  for (std::uint64_t i = 0; i < extent; ++i) {
    x[i] = reference[i] = rng.uniform(-1, 1);
  }
  execute(plan, x.data(), stride);
  core::execute_node(plan.root(), reference.data(), stride,
                     core::codelet_table());
  for (std::uint64_t i = 0; i < extent; ++i) {
    ASSERT_EQ(x[i], reference[i])
        << plan.to_string() << " stride " << stride << " element " << i;
  }
}

TEST(GatherLeaf, StridedLeavesMatchScalarBitwise) {
  if (detected_level() < SimdLevel::kAvx512) {
    GTEST_SKIP() << "host does not dispatch AVX-512";
  }
  const ForcedLevel forced(SimdLevel::kAvx512);
  // Leaves of every gatherable size, at power-of-two and odd strides (the
  // kernel multiplies the stride into its index vector, so nothing in it
  // assumes powers of two).
  for (int k = 3; k <= core::kMaxUnrolled; ++k) {
    for (const std::ptrdiff_t stride : {2, 3, 7, 8, 64, 1021}) {
      expect_strided_parity(core::Plan::small(k), stride);
    }
  }
}

TEST(GatherLeaf, StridedTreesRouteLeavesThroughGather) {
  if (detected_level() < SimdLevel::kAvx512) {
    GTEST_SKIP() << "host does not dispatch AVX-512";
  }
  const ForcedLevel forced(SimdLevel::kAvx512);
  // Whole trees entered at stride > 1: every leaf below runs at an
  // accumulated stride, so the gather path carries the entire walk.
  for (int n : {6, 9, 12}) {
    for (const auto& plan :
         {core::Plan::balanced_binary(n, 4), core::Plan::iterative_radix(n, 4),
          core::Plan::right_recursive(n)}) {
      for (const std::ptrdiff_t stride : {2, 5, 16}) {
        expect_strided_parity(plan, stride);
      }
    }
  }
}

TEST(GatherLeaf, UnitStrideStillTakesTheShuffleCodelet) {
  if (detected_level() < SimdLevel::kAvx512) {
    GTEST_SKIP() << "host does not dispatch AVX-512";
  }
  const ForcedLevel forced(SimdLevel::kAvx512);
  // stride == 1 must stay on leaf_unit (no gather overhead on the hot
  // contiguous path); parity is the observable contract.
  expect_strided_parity(core::Plan::small(8), 1);
  expect_strided_parity(core::Plan::balanced_binary(12, 6), 1);
}

}  // namespace
}  // namespace whtlab::simd
