#include "perf/cycle_timer.hpp"

#include <chrono>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define WHTLAB_HAVE_RDTSC 1
#endif

namespace whtlab::perf {

std::uint64_t read_cycles() {
#ifdef WHTLAB_HAVE_RDTSC
  _mm_lfence();
  const std::uint64_t t = __rdtsc();
  _mm_lfence();
  return t;
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

}  // namespace whtlab::perf
