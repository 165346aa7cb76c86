// Counting recurrence vs direct composition-product enumeration, and the
// paper's O(7^n) growth remark.
#include "search/space.hpp"

#include <gtest/gtest.h>

#include "search/enumerate.hpp"
#include "util/compositions.hpp"

namespace whtlab::search {
namespace {

// Direct count by the defining recursion (exponential; small n only).
util::BigInt brute_count(int n, int max_leaf) {
  util::BigInt total(n <= max_leaf ? 1 : 0);
  if (n >= 2) {
    util::for_each_composition(n, 2, 0, [&](const std::vector<int>& parts) {
      util::BigInt product(1);
      for (int part : parts) product *= brute_count(part, max_leaf);
      total += product;
    });
  }
  return total;
}

TEST(PlanSpace, UnitLeafCountsMatchHandValues) {
  // max_leaf = 1: a = 1, 1, 3, 11, 45, ... (every node splits to size-1
  // leaves; the classic WHT-space sequence).
  PlanSpace space(8, 1);
  EXPECT_EQ(space.count(1).to_string(), "1");
  EXPECT_EQ(space.count(2).to_string(), "1");
  EXPECT_EQ(space.count(3).to_string(), "3");
  EXPECT_EQ(space.count(4).to_string(), "11");
  EXPECT_EQ(space.count(5).to_string(), "45");
}

TEST(PlanSpace, MatchesBruteForceAcrossLeafLimits) {
  for (int max_leaf : {1, 2, 3, 4}) {
    PlanSpace space(9, max_leaf);
    for (int n = 1; n <= 9; ++n) {
      EXPECT_EQ(space.count(n), brute_count(n, max_leaf))
          << "n=" << n << " L=" << max_leaf;
    }
  }
}

TEST(PlanSpace, MatchesEnumerationExactly) {
  for (int max_leaf : {1, 3, 4}) {
    PlanSpace space(7, max_leaf);
    for (int n = 1; n <= 7; ++n) {
      const auto plans = enumerate_plans(n, max_leaf);
      ASSERT_TRUE(space.count(n).fits_u64());
      EXPECT_EQ(plans.size(), space.count(n).value64())
          << "n=" << n << " L=" << max_leaf;
    }
  }
}

TEST(PlanSpace, GrowthApproachesSpaceConstant) {
  // Section 2: "approximately O(7^n) different algorithms".  The growth
  // ratio a(n+1)/a(n) must stabilize in the ~5-9 range and be monotone
  // enough to look geometric.
  PlanSpace space(40, core::kMaxUnrolled);
  const double r30 = space.growth_ratio(30);
  const double r39 = space.growth_ratio(39);
  EXPECT_GT(r30, 5.0);
  EXPECT_LT(r30, 9.0);
  EXPECT_NEAR(r30, r39, 0.2);  // converged
}

TEST(PlanSpace, CountsExceedUint64ForLargeN) {
  PlanSpace space(40, core::kMaxUnrolled);
  EXPECT_FALSE(space.count(40).fits_u64());
  EXPECT_GT(space.count(40).to_double(), 1e25);
}

TEST(PlanSpace, SequenceCountIdentity) {
  // s(n) = 2 a(n) - leaf(n).
  PlanSpace space(10, 4);
  for (int n = 1; n <= 10; ++n) {
    util::BigInt expected = space.count(n) + space.count(n);
    if (n <= 4) expected -= util::BigInt(1);
    EXPECT_EQ(space.sequence_count(n), expected) << n;
  }
}

TEST(PlanSpace, LargerLeafLimitNeverShrinksSpace) {
  PlanSpace narrow(12, 2);
  PlanSpace wide(12, 6);
  for (int n = 1; n <= 12; ++n) {
    EXPECT_GE(wide.count(n), narrow.count(n)) << n;
  }
}

TEST(PlanSpace, ArgumentValidation) {
  EXPECT_THROW(PlanSpace(0, 1), std::invalid_argument);
  EXPECT_THROW(PlanSpace(5, 0), std::invalid_argument);
  EXPECT_THROW(PlanSpace(5, core::kMaxUnrolled + 1), std::invalid_argument);
  PlanSpace space(5, 2);
  EXPECT_THROW(space.count(0), std::out_of_range);
  EXPECT_THROW(space.count(6), std::out_of_range);
}

}  // namespace
}  // namespace whtlab::search
