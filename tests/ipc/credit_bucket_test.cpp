// CreditBucket: whtd's per-client token bucket, charged one credit per
// staged vector.  The properties the daemon's flow control depends on: no
// partial spends, proportional refill within the window (sub-quantum time
// accrues instead of vanishing), a full window restores exactly the
// capacity, and capacity 0 disables the bucket.
#include <gtest/gtest.h>

#include <cstdint>

#include "ipc/credit_bucket.hpp"

namespace whtlab::ipc {
namespace {

constexpr std::uint64_t kWindow = 1000;  // ns, arbitrary units

TEST(CreditBucket, SpendsDownToZeroThenRefuses) {
  CreditBucket bucket(10, kWindow);
  EXPECT_TRUE(bucket.try_spend(4, 0));
  EXPECT_TRUE(bucket.try_spend(6, 0));  // exactly drained
  EXPECT_FALSE(bucket.try_spend(1, 0));
  EXPECT_EQ(bucket.available(0), 0u);
}

TEST(CreditBucket, CostLargerThanBalanceIsRefusedWhole) {
  // No partial spends: a 7-vector batch either fits the balance or waits.
  CreditBucket bucket(10, kWindow);
  EXPECT_TRUE(bucket.try_spend(5, 0));
  EXPECT_FALSE(bucket.try_spend(7, 0));
  EXPECT_EQ(bucket.available(0), 5u) << "the refused spend must cost nothing";
  EXPECT_TRUE(bucket.try_spend(5, 0));
}

TEST(CreditBucket, RefillsProportionallyWithinTheWindow) {
  CreditBucket bucket(10, kWindow);
  EXPECT_TRUE(bucket.try_spend(10, 0));
  EXPECT_FALSE(bucket.try_spend(1, 0));
  // Half a window later, half the capacity is back.
  EXPECT_EQ(bucket.available(kWindow / 2), 5u);
  EXPECT_TRUE(bucket.try_spend(5, kWindow / 2));
  EXPECT_FALSE(bucket.try_spend(1, kWindow / 2));
}

TEST(CreditBucket, FullWindowRestoresFullCapacityExactly) {
  CreditBucket bucket(10, kWindow);
  EXPECT_TRUE(bucket.try_spend(10, 0));
  EXPECT_EQ(bucket.available(kWindow), 10u);
  // Far beyond the window must not overfill past the capacity.
  EXPECT_TRUE(bucket.try_spend(2, 10 * kWindow));
  EXPECT_EQ(bucket.available(10 * kWindow), 8u);
}

TEST(CreditBucket, SubQuantumElapsesAccrueInsteadOfVanishing) {
  // With a big capacity/window ratio mismatch (1 credit per 100 ticks),
  // polling every tick must not round each elapsed slice down to zero
  // credits forever.
  CreditBucket bucket(10, kWindow);  // 1 credit per 100 ticks
  EXPECT_TRUE(bucket.try_spend(10, 0));
  for (std::uint64_t t = 1; t < 100; ++t) {
    EXPECT_EQ(bucket.available(t), 0u) << t;
  }
  EXPECT_EQ(bucket.available(100), 1u) << "tick 100 has earned one credit";
}

TEST(CreditBucket, ZeroCapacityDisables) {
  CreditBucket bucket(0, kWindow);
  EXPECT_TRUE(bucket.try_spend(1, 0));
  EXPECT_TRUE(bucket.try_spend(~std::uint64_t{0}, 1));
}

TEST(CreditBucket, ResetRestoresAFullFreshBucket) {
  CreditBucket bucket(10, kWindow);
  EXPECT_TRUE(bucket.try_spend(10, 5000));
  bucket.reset();  // slot handed to a new tenant
  EXPECT_TRUE(bucket.try_spend(10, 0))
      << "a new tenant starts full, with no history from the old one";
}

TEST(CreditBucket, HugeCapacityTimesElapsedDoesNotOverflow) {
  // elapsed * capacity would wrap uint64 here; the 128-bit refill math must
  // keep the proportion exact instead of leaking or losing credits.
  const std::uint64_t cap = std::uint64_t{1} << 32;
  const std::uint64_t window = std::uint64_t{1} << 40;
  CreditBucket bucket(cap, window);
  EXPECT_TRUE(bucket.try_spend(cap, 0));
  const std::uint64_t half = window / 2;
  EXPECT_EQ(bucket.available(half), cap / 2);
}

}  // namespace
}  // namespace whtlab::ipc
