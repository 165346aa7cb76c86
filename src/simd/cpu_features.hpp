// Runtime CPU dispatch for the SIMD execution backend.
//
// The SIMD codelets are compiled per ISA in dedicated translation units
// (kernels_avx2.cpp with -mavx2, kernels_avx512.cpp with -mavx512f) so one
// binary carries every flavour and picks at runtime: detected_level() asks
// CPUID (via __builtin_cpu_supports) which of the compiled-in levels the
// host can actually execute, and active_level() layers two overrides on top
// so a run is reproducible and testable:
//
//   * the WHTLAB_SIMD environment variable ("scalar", "avx2", "avx512",
//     "auto") caps the level for a whole process — the knob the CI scalar
//     job and cross-machine experiments use;
//   * force_level() caps it programmatically — the knob the dispatch unit
//     tests and the scalar-vs-SIMD comparison bench use.
//
// Overrides can only lower the level: requesting AVX-512 on a host without
// it still yields what the host supports, never an illegal-instruction trap.
#pragma once

#include <cstddef>
#include <string>

namespace whtlab::simd {

/// Instruction-set levels the backend can dispatch to, best last.
enum class SimdLevel {
  kScalar = 0,  ///< portable fallback: the scalar generated codelets
  kAvx2 = 1,    ///< 4 doubles per vector (ymm)
  kAvx512 = 2,  ///< 8 doubles per vector (zmm)
};

/// "scalar", "avx2", "avx512".
const char* to_string(SimdLevel level);

/// Doubles per SIMD lane group: 1, 4, or 8.
int vector_width(SimdLevel level);

/// Best level both compiled in and supported by this host's CPUID bits.
/// Computed once; never changes within a process.
SimdLevel detected_level();

/// The level the executor will actually use: detected_level() capped by the
/// WHTLAB_SIMD environment variable and by force_level(), whichever is lower.
SimdLevel active_level();

/// Caps active_level() at `level` until reset_forced_level() (testing /
/// ablation hook; not synchronized against concurrent executes).
void force_level(SimdLevel level);

/// Removes the force_level() cap.
void reset_forced_level();

/// Parses a WHTLAB_SIMD value.  Throws std::invalid_argument on anything
/// but "scalar" / "avx2" / "avx512" / "auto" (auto = detected_level()).
SimdLevel parse_level(const std::string& name);

/// Data-cache capacities the fused-schedule blocker sizes its blocks to.
/// A 0 entry means the level could not be determined (absent on the host,
/// or no sysfs).  Consumers apply their own fallbacks — see
/// simd::detect_blocking() in fused_executor.hpp.
struct CacheSizes {
  std::size_t l1d_bytes = 0;
  std::size_t l2_bytes = 0;
  std::size_t l3_bytes = 0;
};

/// Probed once per process from /sys/devices/system/cpu/cpu0/cache (Linux).
const CacheSizes& cache_sizes();

}  // namespace whtlab::simd
