// SIMD plan executor — the vectorized twin of core::execute.
//
// Walks the same Equation-1 triple loop as the scalar interpreter but keeps
// the data path W doubles wide (W = 4 on AVX2, 8 on AVX-512F, chosen at
// runtime by simd/cpu_features.hpp):
//
//   * the inner k loop of a split runs W iterations per step once the
//     accumulated stride S reaches W — the W child vectors it would visit
//     one at a time are contiguous in memory, so the whole child subtree
//     executes in lockstep on W-wide loads (kernels.hpp, leaf_lockstep);
//   * stride-1 leaves (the last-child recursion chain) use in-register
//     butterfly codelets (leaf_unit: lane shuffles for the first log2 W
//     stages, full-width add/sub beyond);
//   * everything else — leaves smaller than W, the k < W prefix — falls
//     back to the scalar generated codelets, as does a whole vector that is
//     one leaf at or below its dispatch level's crossover (n <= 4 on AVX2
//     and AVX-512, where the codelet alone beats the walk and leaf_unit),
//     and on hosts with no usable ISA the whole walk degenerates to
//     core::execute_node.
//
// execute_many adds the batch-interleaved serving shape: groups of W
// independent vectors are transposed into SIMD lanes so W whole transforms
// proceed in lockstep (every butterfly full-width, tree-walk overhead
// amortized W-fold), optionally fanned out across std::thread workers per
// batch chunk.  Output is bit-identical to core::execute for every path —
// a tested invariant, not an aspiration.
#pragma once

#include <cstddef>

#include "core/plan.hpp"
#include "simd/cpu_features.hpp"
#include "util/scratch_arena.hpp"

namespace whtlab::simd {

/// In-place WHT of the plan.size() elements x[0], x[stride], ... at the
/// given SIMD level (default: the runtime-dispatched active_level()).
void execute(const core::Plan& plan, double* x, std::ptrdiff_t stride,
             SimdLevel level);
void execute(const core::Plan& plan, double* x, std::ptrdiff_t stride = 1);

/// Batched transform of `count` vectors, vector v starting at x + v*dist
/// (|dist| >= plan.size() so vectors do not overlap).  Full groups of W
/// vectors run batch-interleaved; the remainder runs through execute().
/// `threads` > 1 splits the groups across that many std::thread workers
/// (each with its own interleave scratch).  When the call runs on the
/// calling thread (threads <= 1), `scratch` — if non-null — supplies the
/// interleave buffer so a serving loop allocates nothing per request; the
/// function never stores state in it beyond the call.  Re-entrant: safe to
/// call concurrently on disjoint data with distinct arenas.
void execute_many(const core::Plan& plan, double* x, std::size_t count,
                  std::ptrdiff_t dist, int threads = 1,
                  util::ScratchArena* scratch = nullptr);

/// True when execute_many(plan, ..., count, ...) would take the
/// batch-interleaved path at the active dispatch level — the tiny-transform
/// serving shape whose W-fold overhead amortization the Engine's arbiter
/// prices (api/engine.hpp).
bool batch_interleaves(const core::Plan& plan, std::size_t count);

}  // namespace whtlab::simd
