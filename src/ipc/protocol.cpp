#include "ipc/protocol.hpp"

#include <cstring>
#include <ctime>
#include <string>

#include "ipc/shm.hpp"

namespace whtlab::ipc {

const char* to_string(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kServerFull: return "server-full";
    case Status::kThrottled: return "throttled";
    case Status::kTimeout: return "timeout";
    case Status::kDaemonGone: return "daemon-gone";
    case Status::kBadRequest: return "bad-request";
    case Status::kTooLarge: return "too-large";
    case Status::kExecError: return "exec-error";
    case Status::kProtocolError: return "protocol-error";
    case Status::kDraining: return "draining";
  }
  return "unknown";
}

const char* to_string(Lifecycle lifecycle) {
  switch (lifecycle) {
    case kBooting: return "booting";
    case kWarming: return "warming";
    case kServing: return "serving";
    case kDraining: return "draining";
    case kStopped: return "stopped";
  }
  return "unknown";
}

DaemonCounters load_counters(const SharedStats& shared) {
  DaemonCounters out;
#define WHTLAB_IPC_COUNTER_LOAD(name) \
  out.name = shared.name.load(std::memory_order_relaxed);
  WHTLAB_IPC_COUNTERS(WHTLAB_IPC_COUNTER_LOAD)
#undef WHTLAB_IPC_COUNTER_LOAD
  return out;
}

std::string to_string(const DaemonCounters& counters) {
  std::string line;
#define WHTLAB_IPC_COUNTER_TEXT(name) \
  line += " " #name "=";              \
  line += std::to_string(counters.name);
  WHTLAB_IPC_COUNTERS(WHTLAB_IPC_COUNTER_TEXT)
#undef WHTLAB_IPC_COUNTER_TEXT
  return line.substr(1);  // drop the leading separator
}

bool stats_read(const StatsPage& shared, StatsPage& out, int retries) {
  for (int attempt = 0; attempt < retries; ++attempt) {
    const std::uint64_t before =
        shared.header.seq.load(std::memory_order_acquire);
    if (before & 1) continue;  // publish in progress
    std::memcpy(&out, &shared, sizeof(StatsPage));
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t after =
        shared.header.seq.load(std::memory_order_relaxed);
    if (before == after) return true;
  }
  return false;
}

std::string stats_shm_name_for(const std::string& endpoint) {
  return shm_name_for(endpoint) + ".stats";
}

std::uint64_t monotonic_ns() {
  struct timespec ts {};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace whtlab::ipc
