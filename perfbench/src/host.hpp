// Host descriptor and process accounting for benchmark results.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// One JSON object describing the host: nproc, the active SIMD level, the
/// L1/L2/L3 data-cache sizes, the cpufreq governor when readable, and the
/// source commit the caller passes in.
std::string host_json(const std::string& commit);

/// Removes every WHTLAB_* variable from this process's environment, so no
/// library knob or wisdom setting leaks into a run.  Returns how many.
int unset_whtlab_env();

/// CPU time and context switches of the calling process (all threads).
struct Usage {
  std::uint64_t cpu_ns = 0;
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary
};
Usage self_usage();

/// VmHWM (peak resident set) of the calling process, in MiB.
double self_peak_rss_mb();

/// Lists /dev/shm entries whose name starts with `prefix`.
std::string shm_leftovers(const std::string& prefix);

}  // namespace perfbench
