// Cycle-accurate timing — the PAPI_TOT_CYC stand-in.
//
// On x86-64 the timer reads the invariant TSC with lfence serialization on
// both sides (the standard rdtsc measurement idiom: earlier instructions
// retire before the read, the read completes before later work starts).
// Elsewhere it falls back to std::chrono::steady_clock nanoseconds.
//
// TSC ticks are a constant-rate clock, not core clock cycles, but the paper
// only ever uses cycle counts comparatively (ratios, correlations,
// percentiles), for which any fixed-rate tick is equivalent.  So nothing
// converts ticks to time and no tick rate is calibrated: code that needs
// wall time (the measurement protocol's probe) reads steady_clock itself.
#pragma once

#include <cstdint>

namespace whtlab::perf {

/// Reads the timestamp counter (serialized).  Monotonic, constant rate.
std::uint64_t read_cycles();

}  // namespace whtlab::perf
