#include "util/parallel_chunks.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace whtlab::util {

void place_off_caller_cpu(std::thread& worker) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int cpu = sched_getcpu();
  if (cpu < 0 || cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &allowed)) return;
  CPU_CLR(cpu, &allowed);
  if (CPU_COUNT(&allowed) == 0) return;
  // Best effort: a refused hint leaves the worker where the scheduler put it.
  (void)pthread_setaffinity_np(worker.native_handle(), sizeof(allowed),
                               &allowed);
#else
  (void)worker;
#endif
}

}  // namespace whtlab::util
