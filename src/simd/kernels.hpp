// Vectorized leaf codelets behind a per-ISA kernel table.
//
// The SIMD tree walk (simd_executor.cpp) is ISA-agnostic: split nodes are
// pure index arithmetic, so only the two places data is touched need
// vector code, and those are packaged per instruction set as a KernelSet:
//
//   * leaf_unit — WHT(2^k) on 2^k contiguous doubles.  The first log2(W)
//     butterfly stages act within a vector register (lane shuffles + a
//     sign flip); the remaining stages are full-width add/sub between
//     registers.
//   * leaf_lockstep — WHT(2^k) on W interleaved transforms: element j of
//     lane l lives at x[l + j*stride].  Every butterfly is a plain W-wide
//     add/sub; no shuffles at all.  This is the shape the batched
//     execute_many and the strided inner loop of Equation 1 both reduce to.
//
// Kernel tables live in translation units compiled with the matching
// -m flags (kernels_avx2.cpp, kernels_avx512.cpp); whether each exists is a
// build-time fact (WHTLAB_HAVE_AVX2 / WHTLAB_HAVE_AVX512) and whether it is
// used is a runtime fact (simd/cpu_features.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

namespace whtlab::simd {

struct KernelSet {
  int width = 1;  ///< doubles per vector register

  /// In-place WHT(2^k) on the contiguous x[0 .. 2^k).  Only called with
  /// 2^k >= width (smaller leaves stay scalar — nothing to vectorize).
  void (*leaf_unit)(int k, double* x) = nullptr;

  /// `width` transforms in lockstep: lane l's element j at x[l + j*stride].
  /// Requires stride >= width (lanes must not overlap the next element).
  void (*leaf_lockstep)(int k, double* x, std::ptrdiff_t stride) = nullptr;

  /// Batch transposes for execute_many: gather `width` vectors (lane l at
  /// base + l*dist, n doubles each) into / out of the interleaved scratch
  /// layout (element j of lane l at scratch[j*width + l]) via in-register
  /// W x W transposes.
  void (*interleave_in)(double* scratch, const double* base,
                        std::ptrdiff_t dist, std::uint64_t n) = nullptr;
  void (*interleave_out)(double* base, const double* scratch,
                         std::ptrdiff_t dist, std::uint64_t n) = nullptr;

  /// Fused-schedule passes (core/schedule.hpp; driven by
  /// simd/fused_executor.hpp).  fused_unit_pass runs WHT(2^u) on each of
  /// `runs` contiguous 2^u-double runs (requires 2^u >= width);
  /// fused_lockstep_pass retires stages [stage, stage+k) over one
  /// contiguous block as radix-2^k register tiles at stride 2^stage,
  /// `width` columns per step (requires 2^stage >= width), on columns
  /// [0, columns) of every tile span — 2^stage for the whole pass, a
  /// multiple of `width` below it when threads split the pass by columns.
  void (*fused_unit_pass)(int u, double* x, std::uint64_t runs) = nullptr;
  void (*fused_lockstep_pass)(int k, int stage, double* x, std::uint64_t block,
                              std::uint64_t columns) = nullptr;

  /// Gather/scatter strided leaf: WHT(2^k) on x[0], x[stride], ...,
  /// 2^k >= width, any stride > 1.  nullptr where the ISA cannot express it
  /// (AVX2 gathers but cannot scatter) — callers then keep the scalar
  /// fallback.
  void (*leaf_strided)(int k, double* x, std::ptrdiff_t stride) = nullptr;
};

/// Kernel tables for the ISA-specific translation units.  Only declared
/// here; calling one on a host without the ISA is undefined (dispatch in
/// cpu_features.hpp exists to prevent exactly that).
#if defined(WHTLAB_HAVE_AVX2)
const KernelSet& avx2_kernels();
#endif
#if defined(WHTLAB_HAVE_AVX512)
const KernelSet& avx512_kernels();
#endif

enum class SimdLevel;

/// The kernel table for `level`, or nullptr when the level is scalar or was
/// not compiled into this binary (callers then take their scalar path).
/// Shared by the tree-walk (simd_executor.cpp) and fused-schedule
/// (fused_executor.cpp) executors.
const KernelSet* kernels_for(SimdLevel level);

}  // namespace whtlab::simd
