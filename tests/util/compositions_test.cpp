#include "util/compositions.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

namespace whtlab::util {
namespace {

TEST(Compositions, CountAllParts) {
  EXPECT_EQ(composition_count(1), 1u);
  EXPECT_EQ(composition_count(2), 2u);
  EXPECT_EQ(composition_count(5), 16u);
  EXPECT_EQ(composition_count(10), 512u);
}

TEST(Compositions, CountAtLeastTwoParts) {
  EXPECT_EQ(composition_count(1, 2), 0u);
  EXPECT_EQ(composition_count(2, 2), 1u);
  EXPECT_EQ(composition_count(5, 2), 15u);
}

TEST(Compositions, CountAtLeastThreeParts) {
  // Compositions of 5 with >= 3 parts: 16 - 1 (one part) - 4 (two parts) = 11.
  EXPECT_EQ(composition_count(5, 3), 11u);
}

TEST(Compositions, MaskZeroIsSinglePart) {
  EXPECT_EQ(composition_from_mask(7, 0), (std::vector<int>{7}));
}

TEST(Compositions, MaskAllOnesIsAllUnits) {
  EXPECT_EQ(composition_from_mask(4, 0b111), (std::vector<int>{1, 1, 1, 1}));
}

TEST(Compositions, SpecificMask) {
  // n=5, cuts after positions 2 and 3 -> bits 1 and 2 -> mask 0b0110.
  EXPECT_EQ(composition_from_mask(5, 0b0110), (std::vector<int>{2, 1, 2}));
}

TEST(Compositions, MaskRoundTrip) {
  const int n = 7;
  for (std::uint64_t mask = 0; mask < (1ULL << (n - 1)); ++mask) {
    const auto parts = composition_from_mask(n, mask);
    EXPECT_EQ(std::accumulate(parts.begin(), parts.end(), 0), n);
    EXPECT_EQ(composition_to_mask(parts), mask);
  }
}

TEST(Compositions, ForEachVisitsAllExactlyOnce) {
  const int n = 6;
  std::set<std::vector<int>> seen;
  std::uint64_t visits = 0;
  for_each_composition(n, 1, 0, [&](const std::vector<int>& parts) {
    ++visits;
    EXPECT_EQ(std::accumulate(parts.begin(), parts.end(), 0), n);
    EXPECT_TRUE(seen.insert(parts).second) << "duplicate composition";
  });
  EXPECT_EQ(visits, composition_count(n, 1));
}

TEST(Compositions, ForEachRespectsMinParts) {
  std::uint64_t visits = 0;
  for_each_composition(6, 3, 0, [&](const std::vector<int>& parts) {
    EXPECT_GE(parts.size(), 3u);
    ++visits;
  });
  EXPECT_EQ(visits, composition_count(6, 3));
}

TEST(Compositions, CappedWalkMatchesFilteredWalkInOrder) {
  // The cap steps over masks without decoding them; it must visit exactly
  // what a full walk keeps after filtering, in the same (mask) order —
  // the DP keeps the first of equal-priced candidates.
  for (int n = 1; n <= 16; ++n) {
    for (int cap = 0; cap <= 5; ++cap) {
      std::vector<std::vector<int>> filtered;
      for_each_composition(n, 1, 0, [&](const std::vector<int>& parts) {
        if (cap == 0 || static_cast<int>(parts.size()) <= cap) {
          filtered.push_back(parts);
        }
      });
      std::vector<std::vector<int>> capped;
      for_each_composition(n, 1, cap, [&](const std::vector<int>& parts) {
        capped.push_back(parts);
      });
      EXPECT_EQ(capped, filtered) << "n=" << n << " cap=" << cap;
    }
  }
  // n = 20 with 2 to 4 parts: C(19,1) + C(19,2) + C(19,3) = 1159 calls.
  std::uint64_t visits = 0;
  for_each_composition(20, 2, 4, [&](const std::vector<int>& parts) {
    EXPECT_GE(parts.size(), 2u);
    EXPECT_LE(parts.size(), 4u);
    ++visits;
  });
  EXPECT_EQ(visits, 1159u);
}

TEST(Compositions, BadArgumentsThrow) {
  EXPECT_THROW(composition_count(0), std::invalid_argument);
  EXPECT_THROW(composition_count(64), std::invalid_argument);
  EXPECT_THROW(composition_from_mask(0, 0), std::invalid_argument);
  EXPECT_THROW(composition_from_mask(4, 0b1000), std::invalid_argument);
}

}  // namespace
}  // namespace whtlab::util
