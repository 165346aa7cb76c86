// Unrolled base-case codelets: WHT(2^k) on a strided vector, in place.
//
// The WHT package computes small transforms with generated straight-line
// code ("codelets") to avoid loop and recursion overhead.  whtlab reproduces
// that build step: tools/codelet_gen emits the codelet table's definition
// (codelets_gen.cpp in the build tree) as single-assignment code — one load
// per element, k*2^(k-1) butterflies on named temporaries, one store per
// element — exactly how the original package produced its codelets.
//
// Per call on WHT(2^k) a codelet performs 2^k loads, 2^k stores and k*2^k
// additions/subtractions — the counts assumed by the instruction-count
// model (model/instruction_model.hpp).  bench/micro_codelets.cc times each
// size.
#pragma once

#include <array>
#include <cstddef>

#include "core/plan.hpp"

namespace whtlab::core {

/// Signature shared by all codelets: x points at the first element, elements
/// are `stride` apart; the transform is in place.
using CodeletFn = void (*)(double* x, std::ptrdiff_t stride);

/// Dispatch table indexed by k (entry 0 is nullptr).  Defined by the
/// generated translation unit.
const std::array<CodeletFn, kMaxUnrolled + 1>& codelet_table();

/// Single codelet lookup.  Throws std::out_of_range for k outside
/// [1, kMaxUnrolled].
CodeletFn codelet(int k);

}  // namespace whtlab::core
