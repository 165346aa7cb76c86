// Codelet correctness: the generated codelets vs the dense O(N^2)
// definition, at unit and non-unit strides, bit-exactly vs the textbook fast
// WHT, plus algebraic properties of the 2-point case.
#include "core/codelet.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/verify.hpp"
#include "util/rng.hpp"

namespace whtlab::core {
namespace {

class CodeletParamTest : public ::testing::TestWithParam<int> {};

TEST_P(CodeletParamTest, MatchesDenseDefinitionAtUnitStride) {
  const int k = GetParam();
  const std::uint64_t m = std::uint64_t{1} << k;
  std::vector<double> x(m);
  std::vector<double> expected(m);
  util::Rng rng(77 + static_cast<std::uint64_t>(k));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  dense_wht_apply(k, x.data(), expected.data());
  codelet(k)(x.data(), 1);
  EXPECT_LT(max_abs_diff(x.data(), expected.data(), m), 1e-12);
}

TEST_P(CodeletParamTest, MatchesDenseDefinitionAtStrideSeven) {
  // Stride 7 (non-power-of-two) catches any indexing confusion between
  // logical and physical layout.
  const int k = GetParam();
  const std::uint64_t m = std::uint64_t{1} << k;
  const std::ptrdiff_t stride = 7;
  std::vector<double> buffer(m * 7, -99.0);
  std::vector<double> logical(m);
  std::vector<double> expected(m);
  util::Rng rng(99 + static_cast<std::uint64_t>(k));
  for (std::uint64_t j = 0; j < m; ++j) {
    logical[j] = rng.uniform(-2.0, 2.0);
    buffer[j * 7] = logical[j];
  }
  dense_wht_apply(k, logical.data(), expected.data());
  codelet(k)(buffer.data(), stride);
  for (std::uint64_t j = 0; j < m; ++j) {
    EXPECT_NEAR(buffer[j * 7], expected[j], 1e-12);
  }
  // Gaps untouched.
  for (std::uint64_t i = 0; i < buffer.size(); ++i) {
    if (i % 7 != 0) {
      EXPECT_EQ(buffer[i], -99.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSizes, CodeletParamTest,
                         ::testing::Range(1, kMaxUnrolled + 1),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

TEST(Codelet, BitIdenticalToFastReference) {
  // Same butterflies in the same stage order => identical rounding.
  for (int k = 1; k <= kMaxUnrolled; ++k) {
    const std::uint64_t m = std::uint64_t{1} << k;
    std::vector<double> a(m);
    std::vector<double> b(m);
    util::Rng rng(k);
    for (std::uint64_t j = 0; j < m; ++j) a[j] = b[j] = rng.uniform(-1, 1);
    codelet(k)(a.data(), 1);
    fast_wht_reference(k, b.data());
    for (std::uint64_t j = 0; j < m; ++j) EXPECT_EQ(a[j], b[j]) << k;
  }
}

TEST(Codelet, TwoPointIsButterfly) {
  double x[2] = {3.0, 5.0};
  codelet(1)(x, 1);
  EXPECT_EQ(x[0], 8.0);
  EXPECT_EQ(x[1], -2.0);
}

TEST(Codelet, InvolutionScaledByN) {
  // WHT * WHT = N * I.
  for (int k = 1; k <= 6; ++k) {
    const std::uint64_t m = std::uint64_t{1} << k;
    std::vector<double> x(m);
    std::vector<double> original(m);
    util::Rng rng(k * 13);
    for (std::uint64_t j = 0; j < m; ++j) original[j] = x[j] = rng.uniform(-1, 1);
    codelet(k)(x.data(), 1);
    codelet(k)(x.data(), 1);
    for (std::uint64_t j = 0; j < m; ++j) {
      EXPECT_NEAR(x[j], static_cast<double>(m) * original[j], 1e-9);
    }
  }
}

TEST(Codelet, LookupRejectsBadSize) {
  EXPECT_THROW(codelet(0), std::out_of_range);
  EXPECT_THROW(codelet(kMaxUnrolled + 1), std::out_of_range);
}

TEST(Codelet, TablesFullyPopulated) {
  const auto& table = codelet_table();
  EXPECT_EQ(table[0], nullptr);
  for (int k = 1; k <= kMaxUnrolled; ++k) {
    EXPECT_NE(table[static_cast<std::size_t>(k)], nullptr) << k;
  }
}

}  // namespace
}  // namespace whtlab::core
