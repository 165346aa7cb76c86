#include "ipc/protocol.hpp"

#include <atomic>
#include <cstddef>
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

namespace {

constexpr std::size_t kWord = sizeof(std::uint64_t);

/// The shared page's 64-bit words: the only unit either side accesses the
/// shared page in.  A reader maps the page read-only; a relaxed load of
/// one aligned word never writes, so the const_cast stores nothing.
std::atomic_ref<std::uint64_t> shared_word(const void* page,
                                           std::size_t index) {
  auto* words = static_cast<std::uint64_t*>(const_cast<void*>(page));
  return std::atomic_ref<std::uint64_t>(words[index]);
}

/// Copies `bytes` (whole words) of the shared page into private memory,
/// one relaxed atomic load per word.
void load_words(void* out, const void* shared, std::size_t bytes) {
  auto* dst = static_cast<unsigned char*>(out);
  for (std::size_t i = 0; i < bytes / kWord; ++i) {
    const std::uint64_t word =
        shared_word(shared, i).load(std::memory_order_relaxed);
    std::memcpy(dst + i * kWord, &word, kWord);
  }
}

constexpr std::size_t kSeqWord = offsetof(StatsPageHeader, seq) / kWord;
static_assert(offsetof(StatsPageHeader, seq) % kWord == 0);

}  // namespace

void stats_publish(StatsPage& shared, const StatsPage& staged) {
  // "seq goes odd", then a release fence: a reader whose copy saw any word
  // stored below has its acquire fence synchronize with this one, so its
  // second seq load sees the odd value (or later) and rejects the copy.
  const std::atomic_ref<std::uint64_t> seq = shared_word(&shared, kSeqWord);
  seq.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  const auto* src = reinterpret_cast<const unsigned char*>(&staged);
  for (std::size_t i = 0; i < sizeof(StatsPage) / kWord; ++i) {
    if (i == kSeqWord) continue;
    std::uint64_t word = 0;
    std::memcpy(&word, src + i * kWord, kWord);
    shared_word(&shared, i).store(word, std::memory_order_relaxed);
  }
  // "seq goes even" (release): no store above sinks below it.
  seq.fetch_add(1, std::memory_order_release);
}

bool stats_read(const StatsPage& shared, StatsPage& out, int retries) {
  const std::atomic_ref<std::uint64_t> seq = shared_word(&shared, kSeqWord);
  for (int attempt = 0; attempt < retries; ++attempt) {
    const std::uint64_t before = seq.load(std::memory_order_acquire);
    if (before & 1) continue;  // publish in progress
    load_words(&out, &shared, sizeof(StatsPage));
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t after = seq.load(std::memory_order_relaxed);
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
  // Identify the page from a word copy of its header before waiting on a
  // seq word that a foreign segment may hold odd forever.
  StatsPageHeader header{};
  load_words(&header, page, sizeof(header));
  if (header.magic != kStatsMagic) {
    error = name + ": bad magic — not a stats page";
    return false;
  }
  if (header.version != kStatsVersion) {
    error = name + ": stats page version " + std::to_string(header.version) +
            ", this reader speaks " + std::to_string(kStatsVersion);
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
