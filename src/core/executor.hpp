// Plan executor — the WHT package's interpreter.
//
// Executes a plan in place on an array of 2^n doubles by walking the tree
// with the triple loop of Equation 1 (Section 2 of the paper):
//
//   R = N; S = 1;
//   for i = 1..t:
//     R = R / Ni;
//     for j = 0..R-1:
//       for k = 0..S-1:
//         apply child i to x[j*Ni*S + k] with stride S
//     S = S * Ni;
//
// Base cases dispatch to unrolled codelets (core/codelet.hpp).  The executor
// is deliberately free of instrumentation — this is the code path whose
// cycles the experiments measure; the op-counting twin lives in
// core/instrumented.hpp.
//
// Execution contract: these functions are pure interpreters — no hidden
// state, no scratch, nothing written outside the data vector — and
// therefore re-entrant: any number of threads may execute the same Plan
// concurrently on disjoint data.  The api layer's const ExecutorBackend
// contract (api/executor_backend.hpp) rests on this guarantee; keep it
// when extending the interpreter (per-call work belongs in the caller's
// wht::ExecContext, never in statics).
#pragma once

#include <cstddef>

#include "core/codelet.hpp"
#include "core/plan.hpp"

namespace whtlab::core {

/// Executes `plan` in place on x[0 .. 2^n).  `x` must hold plan.size()
/// doubles.
void execute(const Plan& plan, double* x);

/// Executes a subtree on a strided vector: elements x[0], x[stride], ...
/// Exposed so that the parallel executor and tests can drive subtrees.
void execute_node(const PlanNode& node, double* x, std::ptrdiff_t stride,
                  const std::array<CodeletFn, kMaxUnrolled + 1>& table);

}  // namespace whtlab::core
