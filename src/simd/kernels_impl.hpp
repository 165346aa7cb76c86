// Width-generic SIMD codelet bodies — include ONLY from a translation unit
// compiled with the matching -m flags (kernels_avx2.cpp, kernels_avx512.cpp).
//
// Written against GCC/Clang vector extensions rather than <immintrin.h> so
// one body serves every width: vector add/sub/multiply lower to the ISA the
// TU is compiled for, and __builtin_shufflevector lowers to the in-register
// permutes (vshufpd / vperm2f128 / vshuff64x2) the stride-1 butterflies
// need.  Which templates are instantiated where is kept disjoint per TU
// (W = 4 only in the AVX2 unit, W = 8 only in the AVX-512 unit) so no
// function body ever ends up compiled with the wrong target flags.
//
// Numerical contract: bit-identical to the scalar codelets.  Every butterfly
// is the same (a+b, a−b) pair in the same stage order as the straight-line
// codelets tools/codelet_gen emits; the in-register stages compute a−b as
// a + (b XOR signbit), which is exact for IEEE doubles (sign-bit flip is
// exact negation, and a + (−b) ≡ a − b).  The XOR replaces the previous
// ±1.0 multiply: vxorpd has lower latency than vmulpd, runs on more ports,
// and cannot be FMA-contracted into the critical path.  The parity tests
// assert equality with EXPECT_EQ, not a tolerance.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__AVX512F__)
// The gather/scatter leaf needs the vgatherqpd / vscatterqpd intrinsics,
// which have no vector-extension spelling.  Guarded so only the AVX-512 TU
// (compiled with -mavx512f) sees the include.
#include <immintrin.h>
#endif

#include "core/plan.hpp"

namespace whtlab::simd::detail {

typedef double v4df __attribute__((vector_size(32)));
typedef double v8df __attribute__((vector_size(64)));
typedef std::int64_t v4di __attribute__((vector_size(32)));
typedef std::int64_t v8di __attribute__((vector_size(64)));

template <int W>
struct VecOf;
template <>
struct VecOf<4> {
  using type = v4df;
  using itype = v4di;
};
template <>
struct VecOf<8> {
  using type = v8df;
  using itype = v8di;
};
template <int W>
using vec_t = typename VecOf<W>::type;
template <int W>
using ivec_t = typename VecOf<W>::itype;

/// IEEE-754 double sign bit, for XOR-based sign flips.
inline constexpr std::int64_t kSignBit = std::int64_t{1} << 63;

// memcpy-based loads/stores compile to single unaligned vector moves, which
// run at aligned speed on aligned addresses — and the executor's recursion
// keeps lockstep addresses W-aligned relative to the caller's base pointer.
template <int W>
inline vec_t<W> vload(const double* p) {
  vec_t<W> v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

template <int W>
inline void vstore(double* p, vec_t<W> v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

/// Flips the sign of the lanes whose mask entry is kSignBit (XOR on the
/// reinterpreted bits; C-style casts between same-size vector types are
/// bit-level reinterprets under the GCC/Clang vector extensions).
template <int W>
inline vec_t<W> flip_lanes(vec_t<W> v, ivec_t<W> mask) {
  return (vec_t<W>)((ivec_t<W>)v ^ mask);
}

/// One butterfly stage at lane distance D, entirely inside one register:
/// out[l] = v[l & ~D] + sign_l * v[l | D] with sign_l = (l & D) ? -1 : +1,
/// i.e. lane pairs (l, l+D) become (a+b, a-b).  The sign is applied by
/// XOR-ing the sign bit, not by multiplying.
template <int W, int D>
inline vec_t<W> lane_butterfly(vec_t<W> v) {
  constexpr std::int64_t kNeg = kSignBit;
  if constexpr (W == 4 && D == 1) {
    const v4df lo = __builtin_shufflevector(v, v, 0, 0, 2, 2);
    const v4df hi = __builtin_shufflevector(v, v, 1, 1, 3, 3);
    const v4di mask = {0, kNeg, 0, kNeg};
    return lo + flip_lanes<4>(hi, mask);
  } else if constexpr (W == 4 && D == 2) {
    const v4df lo = __builtin_shufflevector(v, v, 0, 1, 0, 1);
    const v4df hi = __builtin_shufflevector(v, v, 2, 3, 2, 3);
    const v4di mask = {0, 0, kNeg, kNeg};
    return lo + flip_lanes<4>(hi, mask);
  } else if constexpr (W == 8 && D == 1) {
    const v8df lo = __builtin_shufflevector(v, v, 0, 0, 2, 2, 4, 4, 6, 6);
    const v8df hi = __builtin_shufflevector(v, v, 1, 1, 3, 3, 5, 5, 7, 7);
    const v8di mask = {0, kNeg, 0, kNeg, 0, kNeg, 0, kNeg};
    return lo + flip_lanes<8>(hi, mask);
  } else if constexpr (W == 8 && D == 2) {
    const v8df lo = __builtin_shufflevector(v, v, 0, 1, 0, 1, 4, 5, 4, 5);
    const v8df hi = __builtin_shufflevector(v, v, 2, 3, 2, 3, 6, 7, 6, 7);
    const v8di mask = {0, 0, kNeg, kNeg, 0, 0, kNeg, kNeg};
    return lo + flip_lanes<8>(hi, mask);
  } else if constexpr (W == 8 && D == 4) {
    const v8df lo = __builtin_shufflevector(v, v, 0, 1, 2, 3, 0, 1, 2, 3);
    const v8df hi = __builtin_shufflevector(v, v, 4, 5, 6, 7, 4, 5, 6, 7);
    const v8di mask = {0, 0, 0, 0, kNeg, kNeg, kNeg, kNeg};
    return lo + flip_lanes<8>(hi, mask);
  } else {
    // Fail the build, not the lanes, when a new width forgets its shuffles.
    static_assert(W != W, "lane_butterfly: unsupported (W, D) combination");
  }
}

template <int W>
inline constexpr int kLog2Width = W == 4 ? 2 : 3;

/// The in-register WHT(2^k) stage body shared by leaf_unit and the
/// gather/scatter strided leaf: t[] holds 2^k logically consecutive
/// elements W per register.  Stages 0..log2(W)-1 run inside registers via
/// lane_butterfly; stages log2(W).. are full-width add/sub between
/// registers — the same stage order as the scalar codelets.
template <int W>
inline void register_stages(int k, vec_t<W>* t) {
  using vec = vec_t<W>;
  const int nv = (1 << k) / W;
  for (int i = 0; i < nv; ++i) {
    vec v = t[i];
    v = lane_butterfly<W, 1>(v);
    v = lane_butterfly<W, 2>(v);
    if constexpr (W == 8) v = lane_butterfly<W, 4>(v);
    t[i] = v;
  }
  for (int stage = kLog2Width<W>; stage < k; ++stage) {
    const int hw = 1 << (stage - kLog2Width<W>);  // butterfly span in vectors
    for (int base = 0; base < nv; base += 2 * hw) {
      for (int off = 0; off < hw; ++off) {
        const vec a = t[base + off];
        const vec b = t[base + off + hw];
        t[base + off] = a + b;
        t[base + off + hw] = a - b;
      }
    }
  }
}

/// WHT(2^k) on 2^k contiguous doubles, 2^k >= W.
template <int W>
void leaf_unit(int k, double* x) {
  using vec = vec_t<W>;
  const int m = 1 << k;
  const int nv = m / W;
  vec t[(1 << core::kMaxUnrolled) / W];
  for (int i = 0; i < nv; ++i) t[i] = vload<W>(x + i * W);
  register_stages<W>(k, t);
  for (int i = 0; i < nv; ++i) vstore<W>(x + i * W, t[i]);
}

#if defined(__AVX512F__)
/// WHT(2^k) on the 2^k strided doubles x[0], x[stride], ..., 2^k >= 8 —
/// the gather/scatter twin of leaf_unit for the leaves the tree walk would
/// otherwise run scalar (a strided execute() call, or the small-stride
/// recursion below the lockstep threshold).  vgatherqpd pulls 8 strided
/// elements per register so the whole butterfly body runs in zmm exactly as
/// in leaf_unit; vscatterqpd writes them back.  Same adds in the same
/// order, so the result stays bit-identical to the scalar codelet (the
/// parity suites gate this like every other kernel).  AVX-512 only: AVX2
/// has gathers but no scatters, and a gathered load that must be stored
/// back element-by-element loses the exercise.
inline void leaf_strided_avx512(int k, double* x, std::ptrdiff_t stride) {
  const int nv = (1 << k) / 8;
  v8df t[(1 << core::kMaxUnrolled) / 8];
  const long long s = static_cast<long long>(stride);
  const __m512i first =
      _mm512_setr_epi64(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
  const __m512i step = _mm512_set1_epi64(8 * s);
  __m512i index = first;
  for (int i = 0; i < nv; ++i) {
    t[i] = (v8df)_mm512_i64gather_pd(index, x, 8);
    index = _mm512_add_epi64(index, step);
  }
  register_stages<8>(k, t);
  index = first;
  for (int i = 0; i < nv; ++i) {
    _mm512_i64scatter_pd(x, index, (__m512d)t[i], 8);
    index = _mm512_add_epi64(index, step);
  }
}
#endif  // __AVX512F__

/// In-register W x W transpose: r[i][j] <-> r[j][i].  log2(W) levels of
/// pairwise two-vector shuffles (its own inverse, so one routine serves
/// both interleave directions).
template <int W>
inline void transpose_registers(vec_t<W>* r) {
  if constexpr (W == 4) {
    const v4df s0 = __builtin_shufflevector(r[0], r[2], 0, 1, 4, 5);
    const v4df s1 = __builtin_shufflevector(r[1], r[3], 0, 1, 4, 5);
    const v4df s2 = __builtin_shufflevector(r[0], r[2], 2, 3, 6, 7);
    const v4df s3 = __builtin_shufflevector(r[1], r[3], 2, 3, 6, 7);
    r[0] = __builtin_shufflevector(s0, s1, 0, 4, 2, 6);
    r[1] = __builtin_shufflevector(s0, s1, 1, 5, 3, 7);
    r[2] = __builtin_shufflevector(s2, s3, 0, 4, 2, 6);
    r[3] = __builtin_shufflevector(s2, s3, 1, 5, 3, 7);
  } else if constexpr (W == 8) {
    v8df s[8];
    for (int i = 0; i < 4; ++i) {
      s[i] = __builtin_shufflevector(r[i], r[i + 4], 0, 1, 2, 3, 8, 9, 10, 11);
      s[i + 4] =
          __builtin_shufflevector(r[i], r[i + 4], 4, 5, 6, 7, 12, 13, 14, 15);
    }
    for (int g = 0; g < 8; g += 4) {
      const v8df t0 =
          __builtin_shufflevector(s[g], s[g + 2], 0, 1, 8, 9, 4, 5, 12, 13);
      const v8df t1 =
          __builtin_shufflevector(s[g + 1], s[g + 3], 0, 1, 8, 9, 4, 5, 12, 13);
      const v8df t2 =
          __builtin_shufflevector(s[g], s[g + 2], 2, 3, 10, 11, 6, 7, 14, 15);
      const v8df t3 = __builtin_shufflevector(s[g + 1], s[g + 3], 2, 3, 10, 11,
                                              6, 7, 14, 15);
      r[g] = __builtin_shufflevector(t0, t1, 0, 8, 2, 10, 4, 12, 6, 14);
      r[g + 1] = __builtin_shufflevector(t0, t1, 1, 9, 3, 11, 5, 13, 7, 15);
      r[g + 2] = __builtin_shufflevector(t2, t3, 0, 8, 2, 10, 4, 12, 6, 14);
      r[g + 3] = __builtin_shufflevector(t2, t3, 1, 9, 3, 11, 5, 13, 7, 15);
    }
  } else {
    static_assert(W != W, "transpose_registers: unsupported width");
  }
}

/// Gathers W batch vectors (lane l at base + l*dist) into the interleaved
/// scratch layout (element j of lane l at scratch[j*W + l]) one W x W
/// register block at a time.  n < W (tiny transforms) falls back to scalar
/// copies.
template <int W>
void interleave_in(double* scratch, const double* base, std::ptrdiff_t dist,
                   std::uint64_t n) {
  if (n < W) {
    for (std::uint64_t j = 0; j < n; ++j) {
      for (int l = 0; l < W; ++l) {
        scratch[j * W + static_cast<std::uint64_t>(l)] =
            base[static_cast<std::ptrdiff_t>(l) * dist +
                 static_cast<std::ptrdiff_t>(j)];
      }
    }
    return;
  }
  vec_t<W> r[W];
  for (std::uint64_t j = 0; j < n; j += W) {
    for (int l = 0; l < W; ++l) {
      r[l] = vload<W>(base + static_cast<std::ptrdiff_t>(l) * dist +
                      static_cast<std::ptrdiff_t>(j));
    }
    transpose_registers<W>(r);
    for (int c = 0; c < W; ++c) {
      vstore<W>(scratch + (j + static_cast<std::uint64_t>(c)) * W, r[c]);
    }
  }
}

/// Scatters the interleaved scratch back into the W batch vectors — the
/// exact inverse of interleave_in.
template <int W>
void interleave_out(double* base, const double* scratch, std::ptrdiff_t dist,
                    std::uint64_t n) {
  if (n < W) {
    for (std::uint64_t j = 0; j < n; ++j) {
      for (int l = 0; l < W; ++l) {
        base[static_cast<std::ptrdiff_t>(l) * dist +
             static_cast<std::ptrdiff_t>(j)] =
            scratch[j * W + static_cast<std::uint64_t>(l)];
      }
    }
    return;
  }
  vec_t<W> r[W];
  for (std::uint64_t j = 0; j < n; j += W) {
    for (int c = 0; c < W; ++c) {
      r[c] = vload<W>(scratch + (j + static_cast<std::uint64_t>(c)) * W);
    }
    transpose_registers<W>(r);
    for (int l = 0; l < W; ++l) {
      vstore<W>(base + static_cast<std::ptrdiff_t>(l) * dist +
                    static_cast<std::ptrdiff_t>(j),
                r[l]);
    }
  }
}

/// W transforms in lockstep: lane l's element j at x[l + j*stride],
/// stride >= W.  The stage loop of tools/codelet_gen's codelets with every
/// scalar widened to a vector — no shuffles anywhere.
template <int W>
void leaf_lockstep(int k, double* x, std::ptrdiff_t stride) {
  using vec = vec_t<W>;
  const int m = 1 << k;
  vec t[1 << core::kMaxUnrolled];
  for (int j = 0; j < m; ++j) t[j] = vload<W>(x + j * stride);
  for (int stage = 0; stage < k; ++stage) {
    const int half = 1 << stage;
    for (int base = 0; base < m; base += 2 * half) {
      for (int off = 0; off < half; ++off) {
        const vec a = t[base + off];
        const vec b = t[base + off + half];
        t[base + off] = a + b;
        t[base + off + half] = a - b;
      }
    }
  }
  for (int j = 0; j < m; ++j) vstore<W>(x + j * stride, t[j]);
}

// --- fused-schedule pass kernels (core/schedule.hpp lowering) --------------

/// Unit pass of a fused schedule: WHT(2^u) on each of `runs` contiguous
/// 2^u-double runs — the in-register codelet, flat-looped inside the TU so
/// one call covers a whole cache block.
template <int W>
void fused_unit_pass(int u, double* x, std::uint64_t runs) {
  const std::uint64_t m = std::uint64_t{1} << u;
  for (std::uint64_t r = 0; r < runs; ++r) {
    leaf_unit<W>(u, x + r * m);
  }
}

/// Radix-M fused tile on W adjacent columns: element i of column c at
/// x[c + i*s], log2(M) butterfly stages carried entirely in registers
/// (M vectors live — 16 zmm at the radix-8 / width-8 peak).  Constant trip
/// counts: fully unrolled, plain W-wide add/sub, no shuffles.
template <int W, int M>
inline void radix_cols(double* x, std::ptrdiff_t s) {
  using vec = vec_t<W>;
  vec t[M];
  for (int i = 0; i < M; ++i) t[i] = vload<W>(x + i * s);
  for (int half = 1; half < M; half *= 2) {
    for (int base = 0; base < M; base += 2 * half) {
      for (int off = 0; off < half; ++off) {
        const vec a = t[base + off];
        const vec b = t[base + off + half];
        t[base + off] = a + b;
        t[base + off + half] = a - b;
      }
    }
  }
  for (int i = 0; i < M; ++i) vstore<W>(x + i * s, t[i]);
}

template <int W, int M>
void lockstep_pass_radix(double* x, std::uint64_t s, std::uint64_t block,
                         std::uint64_t columns) {
  // Prefetch distance in doubles (8 cache lines ahead on each of the M row
  // streams).  A radix-16/32 pass walks more concurrent strided streams
  // than the hardware prefetchers track, so the kernel asks for its own
  // read-ahead; the hint is ISA-neutral and harmless where HW prefetch
  // already covers the streams.
  constexpr std::uint64_t kPrefetchAhead = 64;
  const std::uint64_t span = s * M;
  for (std::uint64_t j = 0; j < block; j += span) {
    double* base = x + j;
    for (std::uint64_t t = 0; t < columns; t += W) {
      if (t + kPrefetchAhead < columns) {
        for (int i = 0; i < M; ++i) {
          __builtin_prefetch(base + t + kPrefetchAhead + i * s, 1);
        }
      }
      radix_cols<W, M>(base + t, static_cast<std::ptrdiff_t>(s));
    }
  }
}

/// Strided pass of a fused schedule over one contiguous block of `block`
/// doubles: stages [stage, stage+k) as radix-2^k tiles at stride 2^stage,
/// W columns per kernel call (requires 2^stage >= W; the column loop walks
/// contiguous addresses, so a pass is one streaming sweep of the block).
/// Only columns [0, columns) of every 2^(stage+k) span are processed
/// (`columns` a multiple of W, at most 2^stage): a thread handed x offset
/// by c runs columns [c, c + columns) of the pass.
/// Radix-16/32 are the streaming shapes: 16/32 vectors live per tile (the
/// whole register file at radix-32 / width-8; narrower ISAs spill to
/// L1-resident stack, which is still far cheaper than the memory sweep the
/// wider radix saves).
template <int W>
void fused_lockstep_pass(int k, int stage, double* x, std::uint64_t block,
                         std::uint64_t columns) {
  const std::uint64_t s = std::uint64_t{1} << stage;
  switch (k) {
    case 1:
      lockstep_pass_radix<W, 2>(x, s, block, columns);
      return;
    case 2:
      lockstep_pass_radix<W, 4>(x, s, block, columns);
      return;
    case 3:
      lockstep_pass_radix<W, 8>(x, s, block, columns);
      return;
    case 4:
      lockstep_pass_radix<W, 16>(x, s, block, columns);
      return;
    case 5:
      lockstep_pass_radix<W, 32>(x, s, block, columns);
      return;
    default:
      // Beyond the widest unrolled tile: route through the generic
      // lockstep leaf (runtime trip counts, stack-array temporaries).
      for (std::uint64_t j = 0; j < block; j += s << k) {
        for (std::uint64_t t = 0; t < columns; t += W) {
          leaf_lockstep<W>(k, x + j + t, static_cast<std::ptrdiff_t>(s));
        }
      }
      return;
  }
}

}  // namespace whtlab::simd::detail
