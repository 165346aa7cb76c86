// Analytic direct-mapped miss counts — the closed-form replacement for the
// trace walk (after Furis–Hitczenko–Johnson, AofA 2005).
//
// model/cache_model.hpp used to obtain the miss count of a plan by replaying
// the interpreter's full O(n·2^n) access sequence against a tag-per-set
// table.  That is exact but priced autotuning out of the large sizes the
// paper targets: one kEstimate search at n = 22 walks ~10^8 simulated
// accesses per candidate.  This module computes the same number in O(tree)
// from the loop-nest description alone, exploiting the regularity of
// Equation 1's nest in a power-of-two direct-mapped cache:
//
//   * An invocation of a subtree of size 2^m at accumulated stride 2^t
//     touches the lattice {base + i·2^t : i < 2^m}, whose span is 2^{m+t}.
//     When the span fits the cache (m + t <= c), every touched line maps to
//     a distinct set: the invocation is conflict-free, missing exactly once
//     per line it enters without — compulsory behaviour.
//
//   * When the span exceeds the cache, a split node's children execute as
//     full passes over the region.  Each pass re-walks the region from its
//     start; because the region is larger than the cache, the pass evicts
//     its own head before reaching its tail, and what the *previous* pass
//     left resident is exactly the lines of the region's final cache-sized
//     suffix — lines the next pass only reaches after wrapping the set
//     space.  Hence every child invocation enters effectively cold, except
//     consecutive invocations whose offsets agree above the line bit, which
//     touch the *identical* line set and hit it while it is still resident.
//     Counting those sharing groups is pure bit arithmetic on (size, stride,
//     geometry); everything else is a recursion over the children.
//
//   * A leaf whose span exceeds the cache maps 2^{k+t-c} >= 2 lines to every
//     set it touches, so its load pass misses once per line and its store
//     pass, re-walking the same cycle, misses once per line again: 2·D.
//
// The result is bit-for-bit identical to the trace walk (a tested invariant
// for every enumerated plan at small n and sampled plans through n = 14,
// across geometries); the walker itself stays as the reference those tests
// compare against (trace_direct_mapped_misses, see cache_model.hpp).
#pragma once

#include <cstdint>

#include "core/plan.hpp"
#include "model/cost_cache.hpp"

namespace whtlab::model {

struct CacheModelConfig;

/// Closed-form miss count of one cold-start execution of `plan` in a
/// direct-mapped cache — the same number direct_mapped_misses() used to
/// obtain by trace replay, in O(tree) time.
std::uint64_t analytic_direct_mapped_misses(const core::Plan& plan,
                                            const CacheModelConfig& config);

/// Same, memoizing per-(subtree, stride) results in `cache` so searches
/// that re-price shared subtrees (DP's best_by_size children, anneal's
/// mutation neighbourhoods) skip the recursion below any subtree already
/// priced at that stride class.  `cache` may be nullptr (no memoization).
std::uint64_t analytic_direct_mapped_misses(const core::Plan& plan,
                                            const CacheModelConfig& config,
                                            CostCache* cache);

}  // namespace whtlab::model
