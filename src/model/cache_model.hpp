// Cache-miss performance model (after Furis–Hitczenko–Johnson, AofA 2005).
//
// The AofA'05 analysis counts, for each WHT plan, the misses incurred in a
// *direct-mapped* cache — the constraint under which the distribution results
// of that paper were obtained.  whtlab computes the count two ways:
//
//   * analytically (model/analytic_misses.hpp) — a closed-form O(tree)
//     recursion over the plan's loop nest, what direct_mapped_misses()
//     computes and what model-driven planning (kEstimate / kAnneal) prices
//     with;
//   * by trace replay (trace_direct_mapped_misses below) — the original
//     tag-per-set walk over the interpreter's full O(n·2^n) access
//     sequence, kept as the reference the tests check the recursion
//     against.
//
// The two agree exactly — a tested invariant over every enumerated plan at
// small sizes and sampled plans through n = 14, across cache geometries.
// Closed forms short-circuit the provable regimes either way:
//
//   * N <= C (transform fits): every line is missed exactly once (compulsory
//     misses only), M = N/L;
//   * any plan's misses are bounded below by N/L and above by the total
//     access count (both exposed for tests and pruning bounds).
//
// The experiments use the trace-driven simulator (src/cachesim/) in the
// Opteron's 2-way geometry as the PAPI stand-in while this model supplies
// the "from-the-description" predictor the paper's pruning relies on.
#pragma once

#include <cstdint>

#include "core/plan.hpp"

namespace whtlab::model {

class CostCache;

struct CacheModelConfig {
  std::uint64_t cache_elements = 8192;  ///< capacity C in doubles
  std::uint32_t line_elements = 8;      ///< line size L in doubles (64 B)

  /// Paper-machine geometry: 64 KB / 8 B per element, 64 B lines.
  static CacheModelConfig opteron_l1() { return {8192, 8}; }

  void validate() const;
};

/// Exact miss count of one cold-start execution of `plan` in a direct-mapped
/// cache with the given geometry, computed analytically in O(tree) from the
/// plan description alone.
std::uint64_t direct_mapped_misses(const core::Plan& plan,
                                   const CacheModelConfig& config);

/// Memoizing variant: per-(subtree, stride) results land in `cache`
/// (model/cost_cache.hpp) so searches stop re-pricing shared subtrees.
/// nullptr degrades to the plain call.
std::uint64_t direct_mapped_misses(const core::Plan& plan,
                                   const CacheModelConfig& config,
                                   CostCache* cache);

/// The trace-replay oracle: walks the interpreter's full access sequence
/// against a tag-per-set table.  O(n·2^n) — exact by construction, and what
/// the analytic model is tested against.
std::uint64_t trace_direct_mapped_misses(const core::Plan& plan,
                                         const CacheModelConfig& config);

/// Compulsory misses: number of distinct lines the transform touches.
std::uint64_t compulsory_misses(const core::Plan& plan,
                                const CacheModelConfig& config);

/// Total memory accesses (upper bound on misses).
std::uint64_t access_count(const core::Plan& plan);

}  // namespace whtlab::model
