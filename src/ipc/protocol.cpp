#include "ipc/protocol.hpp"

#include <cstring>
#include <ctime>
#include <exception>
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

bool stats_snapshot(const std::string& endpoint, StatsPage& out,
                    std::string& error) {
  const std::string name = stats_shm_name_for(endpoint);
  Shm shm;
  try {
    shm = Shm::open_readonly(name);
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
  if (shm.size() < sizeof(StatsPage)) {
    error = name + ": segment too small (" + std::to_string(shm.size()) +
            " bytes) — not a stats page";
    return false;
  }
  const auto* page = static_cast<const StatsPage*>(shm.data());
  if (page->header.magic != kStatsMagic) {
    error = name + ": bad magic — not a stats page";
    return false;
  }
  if (page->header.version != kStatsVersion) {
    error = name + ": stats page version " +
            std::to_string(page->header.version) + ", this reader speaks " +
            std::to_string(kStatsVersion);
    return false;
  }
  if (!stats_read(*page, out)) {
    error = name + ": no consistent snapshot (publish storm) — try again";
    return false;
  }
  // Checked on the copy: the writer may change the shared count after it.
  if (out.header.series_count > kStatsSeriesCapacity) {
    error = name + ": malformed stats page: " +
            std::to_string(out.header.series_count) +
            " series, the page holds " + std::to_string(kStatsSeriesCapacity);
    return false;
  }
  return true;
}

std::uint64_t monotonic_ns() {
  struct timespec ts {};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace whtlab::ipc
