// Vectorized interpreter for cache-blocked fused schedules.
//
// core/schedule.hpp lowers a size into nested cache-blocked rounds of fused
// passes; this module executes such a schedule with the per-ISA fused
// kernels (simd/kernels.hpp): the unit pass is the in-register contiguous
// codelet swept across a block, and every strided pass is a flat streaming
// loop of radix-2/4/8 register tiles, W columns per step.  Dispatch follows
// the same runtime rules as the tree-walk executor (cpu_features.hpp);
// scalar level, strided invocations, and schedules a width cannot cover
// (transform or unit pass smaller than a vector) fall back to the scalar
// schedule interpreter — the parity reference.
//
// With a thread budget, one vector beyond the largest cache block runs on
// several threads: the blocks of a round, and the column ranges of a
// streaming pass, are independent, so execute_fused splits each top-level
// round into chunks that the caller and per-call workers claim in round
// order.  Batches instead fan whole vectors out (execute_fused_many).
//
// This is the execution engine behind the "fused" backend, and the layer
// future big-n backends (sharded/NUMA, GPU) lower through: they consume the
// same core::Schedule, swapping only the per-pass kernels.
#pragma once

#include <cstddef>

#include "core/schedule.hpp"
#include "simd/cpu_features.hpp"

namespace whtlab::simd {

/// Blocking geometry for this host: L1/L2 block sizes derived from the
/// probed cache_sizes() (half of each level, in doubles), defaults where a
/// level is unknown.  Callers that need another geometry pass their own
/// core::BlockingConfig to core::lower_size.
core::BlockingConfig detect_blocking();

/// Executes `schedule` in place on the 2^n elements x[0], x[stride], ...
/// at the given (or active) SIMD level.  Bit-identical to core::execute on
/// any plan of the same size.
///
/// threads > 1 runs one vector on up to `threads` threads (the caller and
/// threads - 1 workers started per call and joined before return) when the
/// schedule has at least two top-level rounds, i.e. the vector is larger
/// than the largest cache block, and takes the vectorized path at unit
/// stride.  Each round is cut into ranges of whole blocks or, for a
/// streaming pass with fewer blocks than chunks, into W-aligned column
/// ranges; chunks are claimed in round order and a round starts once the
/// previous one is done.  Every other call runs on the calling thread.
void execute_fused(const core::Schedule& schedule, double* x,
                   std::ptrdiff_t stride, SimdLevel level, int threads = 1);
void execute_fused(const core::Schedule& schedule, double* x,
                   std::ptrdiff_t stride = 1);

/// Batched fused execution: `count` vectors, vector v at x + v*dist, fanned
/// out over `threads` workers (each vector runs the whole schedule on one
/// thread — the schedule lowering is shared, which is what run_many
/// batching buys here).
void execute_fused_many(const core::Schedule& schedule, double* x,
                        std::size_t count, std::ptrdiff_t dist, int threads);

}  // namespace whtlab::simd
