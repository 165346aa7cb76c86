// Schedule unit tests: the blocker's rounds cover every stage exactly once
// under its caps, and the scalar schedule interpreter is bit-identical to
// the recursive executor (the property that makes one schedule per size
// sound).
#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/executor.hpp"
#include "core/plan.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace whtlab::core {
namespace {

/// Collects (stage, radix) coverage of a round tree, depth first in
/// execution order (inner rounds before own passes).
void collect_passes(const ScheduleRound& round, int max_block_log2,
                    std::vector<SchedulePass>& out) {
  EXPECT_LE(round.block_log2, max_block_log2);
  for (const ScheduleRound& inner : round.inner) {
    collect_passes(inner, round.block_log2, out);
  }
  for (const SchedulePass& pass : round.passes) {
    EXPECT_LE(pass.stage + pass.radix_log2, round.block_log2)
        << "pass tiles must fit the sweeping block";
    out.push_back(pass);
  }
}

TEST(LowerSize, RoundsPartitionStagesUnderCaps) {
  const BlockingConfig config{};  // unit 8, radix 3/5, blocks 2^11 / 2^17
  for (int n = 1; n <= 26; ++n) {
    const Schedule schedule = lower_size(n, config);
    EXPECT_EQ(schedule.log2_size, n);
    std::vector<SchedulePass> passes;
    for (const ScheduleRound& round : schedule.rounds) {
      collect_passes(round, n, passes);
    }
    const int c1 =
        std::clamp(config.l2_block_log2,
                   std::clamp(config.l1_block_log2,
                              std::min(n, config.unit_log2), n),
                   n);
    int stage = 0;
    for (const SchedulePass& pass : passes) {
      EXPECT_EQ(pass.stage, stage) << "n=" << n;
      EXPECT_GE(pass.radix_log2, 1);
      if (pass.stage == 0) {
        EXPECT_LE(pass.radix_log2, config.unit_log2);
      } else if (pass.stage >= c1) {
        EXPECT_LE(pass.radix_log2, config.stream_radix_log2)
            << "streaming pass above the L2 block";
      } else {
        EXPECT_LE(pass.radix_log2, config.max_radix_log2);
      }
      stage += pass.radix_log2;
    }
    EXPECT_EQ(stage, n) << "stages covered exactly once, ascending";
  }
}

TEST(LowerSize, SweepCountsMatchTheBlockingStory) {
  BlockingConfig config;
  config.l1_block_log2 = 11;
  config.l2_block_log2 = 17;
  // In-L2 sizes: one nested DRAM sweep regardless of n.
  EXPECT_EQ(sweep_count(lower_size(8, config)), 1);
  EXPECT_EQ(sweep_count(lower_size(17, config)), 1);
  // Above L2: one extra sweep per fused streaming group of the top stages
  // (up to radix-32 per sweep).
  EXPECT_EQ(sweep_count(lower_size(18, config)), 2);   // [17,18) -> 1 pass
  EXPECT_EQ(sweep_count(lower_size(20, config)), 2);   // [17,20) -> radix-8
  EXPECT_EQ(sweep_count(lower_size(22, config)), 2);   // [17,22) -> radix-32
  EXPECT_EQ(sweep_count(lower_size(24, config)), 3);   // [17,24) -> 16+8
}

TEST(LowerSize, RejectsBadArguments) {
  EXPECT_THROW(lower_size(0, {}), std::invalid_argument);
  BlockingConfig bad_unit;
  bad_unit.unit_log2 = kMaxUnrolled + 1;
  EXPECT_THROW(lower_size(4, bad_unit), std::invalid_argument);
  BlockingConfig bad_radix;
  bad_radix.max_radix_log2 = 0;
  EXPECT_THROW(lower_size(4, bad_radix), std::invalid_argument);
  // Radixes beyond the codelet table / lockstep leaf ceiling must be
  // rejected, not executed (they would index out of bounds downstream).
  BlockingConfig wide_radix;
  wide_radix.max_radix_log2 = kMaxUnrolled + 1;
  EXPECT_THROW(lower_size(4, wide_radix), std::invalid_argument);
  BlockingConfig wide_stream;
  wide_stream.stream_radix_log2 = kMaxUnrolled + 1;
  EXPECT_THROW(lower_size(4, wide_stream), std::invalid_argument);
}

TEST(ExecuteSchedule, RejectsMalformedHandBuiltSchedules) {
  // execute_schedule is public and accepts hand-built schedules; geometry
  // that would index past the codelet table or read outside a block must
  // throw, not corrupt memory.
  util::AlignedBuffer x(std::uint64_t{1} << 6);
  x.fill(1.0);
  Schedule oversized_radix;
  oversized_radix.log2_size = 6;
  oversized_radix.rounds.push_back(
      {6, {}, {{0, 1}, {1, kMaxUnrolled + 1}}});
  EXPECT_THROW(execute_schedule(oversized_radix, x.data()),
               std::invalid_argument);
  Schedule overflowing_tile;
  overflowing_tile.log2_size = 6;
  overflowing_tile.rounds.push_back({4, {}, {{0, 2}, {3, 3}}});  // 3+3 > 4
  EXPECT_THROW(execute_schedule(overflowing_tile, x.data()),
               std::invalid_argument);
}

TEST(ExecuteSchedule, BitIdenticalToRecursiveExecutorAcrossConfigs) {
  // Sweep block geometries that exercise every blocker shape: single round,
  // nested L1-in-L2, top strided passes of radix 1..3, tiny unit passes.
  std::vector<BlockingConfig> configs;
  configs.push_back({});                      // defaults
  configs.push_back({4, 3, 6, 9});            // small unit, nested, top passes
  configs.push_back({8, 1, 10, 12});          // radix-2 strided passes only
  configs.push_back({2, 2, 2, 4});            // degenerate tiny blocks
  for (int n = 1; n <= 14; ++n) {
    const Plan plan = Plan::balanced_binary(n, 4);
    for (const BlockingConfig& config : configs) {
      const Schedule schedule = lower_size(n, config);
      util::AlignedBuffer x(plan.size());
      util::AlignedBuffer reference(plan.size());
      util::Rng rng(static_cast<std::uint64_t>(n) * 37 + 1);
      for (std::uint64_t i = 0; i < plan.size(); ++i) {
        x[i] = reference[i] = rng.uniform(-1, 1);
      }
      execute_schedule(schedule, x.data());
      execute(plan, reference.data());
      for (std::uint64_t i = 0; i < plan.size(); ++i) {
        ASSERT_EQ(x[i], reference[i])
            << "n=" << n << " unit=" << config.unit_log2
            << " l1=" << config.l1_block_log2
            << " l2=" << config.l2_block_log2 << " i=" << i;
      }
    }
  }
}

TEST(ExecuteSchedule, StridedMatchesDenseAndKeepsGapsIntact) {
  for (int n : {4, 8, 11}) {
    for (const std::ptrdiff_t stride : {2, 5}) {
      const Schedule schedule = lower_size(n, {4, 2, 6, 8});
      const std::uint64_t size = std::uint64_t{1} << n;
      util::AlignedBuffer strided(size * static_cast<std::uint64_t>(stride));
      util::AlignedBuffer dense(size);
      util::Rng rng(static_cast<std::uint64_t>(n) * 19 + 5);
      strided.fill(-7.0);
      for (std::uint64_t i = 0; i < size; ++i) {
        const double v = rng.uniform(-1, 1);
        strided[i * static_cast<std::uint64_t>(stride)] = v;
        dense[i] = v;
      }
      execute_schedule(schedule, strided.data(), stride,
                       codelet_table());
      execute_schedule(schedule, dense.data());
      for (std::uint64_t i = 0; i < size; ++i) {
        ASSERT_EQ(strided[i * static_cast<std::uint64_t>(stride)], dense[i]);
        for (std::ptrdiff_t off = 1; off < stride && i + 1 < size; ++off) {
          ASSERT_EQ(strided[i * static_cast<std::uint64_t>(stride) +
                            static_cast<std::uint64_t>(off)],
                    -7.0);
        }
      }
    }
  }
}

}  // namespace
}  // namespace whtlab::core
