#include "simd/cpu_features.hpp"

#include <atomic>
#include <fstream>
#include <stdexcept>
#include <string>

#include "util/env.hpp"

namespace whtlab::simd {

namespace {

/// Sentinel for "no force_level() cap in effect".
constexpr int kNoForce = -1;

std::atomic<int> g_forced{kNoForce};

SimdLevel env_cap() {
  static const SimdLevel cap = [] {
    const auto value = util::env_string("WHTLAB_SIMD");
    if (!value) return SimdLevel::kAvx512;  // no cap
    return parse_level(*value);
  }();
  return cap;
}

}  // namespace

const char* to_string(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

int vector_width(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return 1;
    case SimdLevel::kAvx2:
      return 4;
    case SimdLevel::kAvx512:
      return 8;
  }
  return 1;
}

SimdLevel parse_level(const std::string& name) {
  if (name == "scalar") return SimdLevel::kScalar;
  if (name == "avx2") return SimdLevel::kAvx2;
  if (name == "avx512") return SimdLevel::kAvx512;
  if (name == "auto") return detected_level();
  throw std::invalid_argument(
      "WHTLAB_SIMD: expected scalar|avx2|avx512|auto, got '" + name + "'");
}

SimdLevel detected_level() {
  static const SimdLevel level = [] {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#if defined(WHTLAB_HAVE_AVX512)
    if (__builtin_cpu_supports("avx512f")) return SimdLevel::kAvx512;
#endif
#if defined(WHTLAB_HAVE_AVX2)
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
#endif
    return SimdLevel::kScalar;
  }();
  return level;
}

SimdLevel active_level() {
  SimdLevel level = detected_level();
  if (env_cap() < level) level = env_cap();
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced != kNoForce && static_cast<SimdLevel>(forced) < level) {
    level = static_cast<SimdLevel>(forced);
  }
  return level;
}

void force_level(SimdLevel level) {
  g_forced.store(static_cast<int>(level), std::memory_order_relaxed);
}

void reset_forced_level() { g_forced.store(kNoForce, std::memory_order_relaxed); }

namespace {

std::string read_sysfs_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in && std::getline(in, line)) return line;
  return {};
}

/// Parses sysfs cache sizes: "48K", "2048K", "8M" (decimal bytes otherwise).
std::size_t parse_cache_size(const std::string& text) {
  if (text.empty()) return 0;
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size()) {
    if (text[i] == 'K' || text[i] == 'k') value <<= 10;
    if (text[i] == 'M' || text[i] == 'm') value <<= 20;
    if (text[i] == 'G' || text[i] == 'g') value <<= 30;
  }
  return value;
}

CacheSizes probe_cache_sizes() {
  CacheSizes sizes;
  // cpu0's view is what a single-threaded transform sees; shared levels
  // report their full capacity, which is the right block-sizing bound.
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  for (int index = 0; index < 8; ++index) {
    const std::string dir = base + std::to_string(index) + "/";
    const std::string level = read_sysfs_line(dir + "level");
    if (level.empty()) break;
    const std::string type = read_sysfs_line(dir + "type");
    const std::size_t bytes = parse_cache_size(read_sysfs_line(dir + "size"));
    if (bytes == 0 || type == "Instruction") continue;
    if (level == "1") sizes.l1d_bytes = bytes;
    if (level == "2") sizes.l2_bytes = bytes;
    if (level == "3") sizes.l3_bytes = bytes;
  }
  return sizes;
}

}  // namespace

const CacheSizes& cache_sizes() {
  static const CacheSizes sizes = probe_cache_sizes();
  return sizes;
}

}  // namespace whtlab::simd
