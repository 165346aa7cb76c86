// Cache-blocked stage-fused execution schedules.
//
// Every plan in the WHT space retires the same set of butterflies: stage s
// (0 <= s < n) pairs elements at distance 2^s, and a leaf small[k] reached at
// accumulated stride 2^s is exactly stages [s, s+k) restricted to one coset.
// A plan therefore *is* an ordered partition of the stages [0, n) plus a
// traversal order — and any execution that applies the stages in ascending
// order per element computes the bit-identical result, because each stage's
// butterflies are disjoint (a+b, a-b) pairs over values the previous stages
// fully determined.
//
// This module exploits that freedom: lower_size() builds the one flat,
// iterative, cache-blocked schedule for WHT(2^n) that every plan of that
// size may run.  The stages are blocked against an explicit cache hierarchy
// (BlockingConfig):
//
//   * contiguous blocks sized to L1/L2 are loaded once and carried through
//     every stage that fits (nested ScheduleRounds);
//   * the stages above the largest block become radix-2^k fused passes —
//     one memory sweep retires k stages, the memory-bound regime's only
//     lever.
//
// The schedule is a property of n and the machine, not of any tree shape,
// which is why the "fused" backend is plan-oblivious and the Planner
// searches nothing for it.
//
// The scalar interpreter (execute_schedule) is the parity reference and the
// strided fallback; the vectorized twin lives in simd/fused_executor.hpp.
//
// Execution contract: a Schedule is immutable once lowered and
// execute_schedule is a pure in-place interpreter over it — re-entrant,
// shareable across threads on disjoint data with no locking.  The "fused"
// backend memoizes one Schedule per size and serves it concurrently on
// exactly this guarantee (api/executor_backend.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/codelet.hpp"

namespace whtlab::core {

/// One fused group of consecutive butterfly stages, applied in a single
/// sweep of its enclosing block.  stage == 0 is the *unit pass*: tiles are
/// contiguous runs of 2^radix_log2 doubles (radix up to kMaxUnrolled, run as
/// an unrolled codelet).  stage > 0 is a *strided pass*: tiles are
/// 2^radix_log2 elements at stride 2^stage (radix capped by
/// BlockingConfig::max_radix_log2 so a tile stays in registers).
struct SchedulePass {
  int stage = 0;        ///< first butterfly stage: pairs at distance 2^stage
  int radix_log2 = 1;   ///< stages fused: this pass covers [stage, stage+radix_log2)
};

/// One sweep unit: contiguous blocks of 2^block_log2 doubles.  Per block,
/// the inner rounds run first (sub-blocks of the block, e.g. L1 blocks
/// inside an L2 block), then the block's own passes — so a block is loaded
/// into its cache level once and carried through every stage below
/// block_log2.
struct ScheduleRound {
  int block_log2 = 0;
  std::vector<ScheduleRound> inner;  ///< swept per block before `passes`
  std::vector<SchedulePass> passes;  ///< applied per block, in order
};

/// A lowered, iterative execution schedule for WHT(2^n).  Top-level rounds
/// are swept over the full array in order; together their passes cover each
/// stage of [0, n) exactly once, ascending.
struct Schedule {
  int log2_size = 0;
  std::vector<ScheduleRound> rounds;
};

/// Cache geometry the blocker targets.  Defaults describe a generic x86
/// (16 KiB L1 working block, 1 MiB L2 block); simd::detect_blocking() sizes
/// the blocks to the host's probed caches.  All sizes are log2 counts of
/// doubles.
struct BlockingConfig {
  int unit_log2 = kMaxUnrolled;  ///< contiguous base-pass size (codelet ceiling)
  int max_radix_log2 = 3;        ///< widest in-cache strided pass (radix-8)
  int l1_block_log2 = 11;        ///< 2^11 doubles = 16 KiB
  int l2_block_log2 = 17;        ///< 2^17 doubles = 1 MiB
  /// Widest *streaming* pass (stages above the L2 block, where every pass
  /// is a full memory sweep).  Wider than the in-cache cap because trading
  /// register pressure for one fewer DRAM sweep is the right trade out
  /// there: radix-32 keeps 32 vectors live — the whole AVX-512 register
  /// file — and spills on narrower ISAs, but spills are L1-resident while
  /// the sweep it saves is not.
  int stream_radix_log2 = 5;
};

/// The cache-blocked schedule for WHT(2^n) under `config`: bit-identical to
/// every plan of that size (see the header comment).
Schedule lower_size(int n, const BlockingConfig& config = {});

/// Number of top-level rounds = full-array memory sweeps the schedule
/// performs (beyond the largest cache block, each one a trip to memory).
int sweep_count(const Schedule& schedule);

/// Scalar interpreter: executes `schedule` in place on the 2^n elements
/// x[0], x[stride], ...  Bit-identical to core::execute on any plan of the
/// same size.  Unit passes run the `table` codelets; strided passes run the
/// inlined radix-2/4/8 tile kernels (larger radixes fall back to `table`).
void execute_schedule(const Schedule& schedule, double* x, std::ptrdiff_t stride,
                      const std::array<CodeletFn, kMaxUnrolled + 1>& table);

/// Convenience overload with the generated codelets at unit stride.
void execute_schedule(const Schedule& schedule, double* x);

}  // namespace whtlab::core
