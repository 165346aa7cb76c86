// Fork-join parallel plan executor (extension beyond the paper).
//
// The paper's measurements are single-core (Opteron 224), but the WHT
// package later grew an OpenMP backend; this is the whtlab equivalent using
// std::thread.  Within one factor i of the root split, the R*S child
// applications are independent (they touch disjoint strided sub-vectors), so
// they are partitioned across threads; factors are separated by a join since
// factor i+1 reads what factor i wrote.
//
// Sub-root nodes execute sequentially — for the transform sizes where
// threading pays off, the root split already exposes ample parallelism.
#pragma once

#include <cstddef>

#include "core/plan.hpp"

namespace whtlab::core {

/// Executes `plan` in place using up to `num_threads` threads.
/// num_threads <= 1 degenerates to the sequential executor.
void execute_parallel(const Plan& plan, double* x, int num_threads);

/// Strided variant: operates on the plan.size() elements x[0], x[stride], ...
/// (the entry point the api::Transform strided path uses).
void execute_parallel_strided(const Plan& plan, double* x, std::ptrdiff_t stride,
                              int num_threads);

}  // namespace whtlab::core
