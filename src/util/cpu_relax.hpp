// One step of a spin-wait loop: the x86 pause hint (cheaper re-polling and
// no memory-order pipeline flush when the loop exits), a yield elsewhere.
#pragma once

#include <thread>

namespace whtlab::util {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace whtlab::util
