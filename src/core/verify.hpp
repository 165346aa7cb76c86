// Reference transforms and plan verification.
//
// Two independent references back every executor and codelet:
//   * dense_wht_apply    — literal O(N^2) matrix-vector product with the
//                          (+1/-1) Hadamard matrix, feasible for n <= ~13;
//   * fast_wht_reference — textbook in-place radix-2 butterfly, O(N log N),
//                          structurally unrelated to the plan interpreter.
//
// `verify_plan` runs a plan against the fast reference on random input and
// reports the max absolute error (exact arithmetic on small integers would
// be error-free; doubles accumulate rounding, so a tolerance scaled by N is
// used by callers).
#pragma once

#include <cstdint>

#include "core/plan.hpp"

namespace whtlab::core {

/// y = WHT(2^n) * x by direct summation: y[i] = sum_j (-1)^{popcount(i&j)} x[j].
/// O(N^2); intended for n <= 13.
void dense_wht_apply(int n, const double* x, double* y);

/// Textbook in-place fast WHT (natural/Hadamard order).
void fast_wht_reference(int n, double* x);

/// Max |a[i] - b[i]| over the first count elements.
double max_abs_diff(const double* a, const double* b, std::uint64_t count);

/// Executes `plan` and the fast reference on identical pseudo-random input
/// (seeded deterministically) and returns the max absolute error.
double verify_plan(const Plan& plan, std::uint64_t seed = 12345);

}  // namespace whtlab::core
