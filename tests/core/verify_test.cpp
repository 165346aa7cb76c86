// Tests for the verification utilities themselves, plus parser fuzzing with
// randomly generated plans (round-trip must hold for every sampled plan).
#include "core/verify.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "core/plan_io.hpp"
#include "search/sampler.hpp"
#include "util/rng.hpp"

namespace whtlab::core {
namespace {

TEST(DenseWht, TwoPointMatrix) {
  const double x[2] = {1.0, 2.0};
  double y[2];
  dense_wht_apply(1, x, y);
  EXPECT_EQ(y[0], 3.0);
  EXPECT_EQ(y[1], -1.0);
}

TEST(DenseWht, RowsAreWalshFunctions) {
  // Row i, column j of the Hadamard matrix is (-1)^popcount(i & j); check a
  // handful of entries via unit vectors.
  const int n = 5;
  const std::uint64_t size = 1u << n;
  std::vector<double> e(size, 0.0);
  std::vector<double> row(size);
  e[13] = 1.0;  // column 13
  dense_wht_apply(n, e.data(), row.data());
  for (std::uint64_t i = 0; i < size; ++i) {
    const double expected = (std::popcount(i & 13u) & 1) ? -1.0 : 1.0;
    EXPECT_EQ(row[i], expected) << i;
  }
}

TEST(DenseWht, MatrixIsSymmetric) {
  const int n = 4;
  const std::uint64_t size = 1u << n;
  // Compare WHT*e_i with the i-th coordinate pattern of WHT*e_j.
  std::vector<double> ei(size, 0.0);
  std::vector<double> ej(size, 0.0);
  std::vector<double> coli(size);
  std::vector<double> colj(size);
  ei[3] = 1.0;
  ej[11] = 1.0;
  dense_wht_apply(n, ei.data(), coli.data());
  dense_wht_apply(n, ej.data(), colj.data());
  EXPECT_EQ(coli[11], colj[3]);
}

TEST(MaxAbsDiff, PicksTheWorstEntry) {
  const double a[4] = {1, 2, 3, 4};
  const double b[4] = {1, 2.5, 3, 3.0};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b, 4), 1.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(a, a, 4), 0.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b, 0), 0.0);
}

TEST(VerifyPlan, DetectsNothingOnCorrectPlans) {
  EXPECT_LT(verify_plan(Plan::small(4)), 1e-12);
  EXPECT_LT(verify_plan(Plan::iterative(10)), 1e-9);
}

TEST(VerifyPlan, DifferentSeedsStillPass) {
  const Plan plan = Plan::balanced_binary(9, 3);
  for (std::uint64_t seed : {1ULL, 99ULL, 424242ULL}) {
    EXPECT_LT(verify_plan(plan, seed), 1e-9);
  }
}

TEST(ParserFuzz, RandomPlansRoundTrip) {
  util::Rng rng(31337);
  search::RecursiveSplitSampler sampler(kMaxUnrolled);
  for (int n : {1, 3, 6, 10, 14, 20}) {
    for (int trial = 0; trial < 25; ++trial) {
      const Plan plan = sampler.sample(n, rng);
      const std::string text = plan.to_string();
      const Plan reparsed = parse_plan(text);
      EXPECT_EQ(reparsed, plan) << text;
      EXPECT_EQ(reparsed.to_string(), text);
    }
  }
}

TEST(ParserFuzz, MutatedTextNeverCrashes) {
  // Randomly corrupt valid plan strings; the parser must either accept a
  // valid plan or throw invalid_argument — never crash or accept garbage
  // silently.
  util::Rng rng(777);
  search::RecursiveSplitSampler sampler(kMaxUnrolled);
  const char alphabet[] = "smallpit[],0123456789 ";
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string text = sampler.sample(8, rng).to_string();
    const std::size_t pos = rng.below(text.size());
    text[pos] = alphabet[rng.below(sizeof(alphabet) - 1)];
    try {
      const Plan plan = parse_plan(text);
      // If accepted, it must be internally consistent.
      EXPECT_EQ(plan.to_string().size() > 0, true);
      EXPECT_GE(plan.log2_size(), 1);
      ++accepted;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(accepted + rejected, 500);
}

}  // namespace
}  // namespace whtlab::core
