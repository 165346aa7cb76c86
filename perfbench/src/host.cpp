#include "host.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include "simd/cpu_features.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return "";
  return line;
}

/// Keeps only characters that are safe inside a JSON string.
std::string json_safe(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string host_json(const std::string& commit) {
  const auto& caches = whtlab::simd::cache_sizes();
  const std::string governor =
      read_first_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %ld, \"simd\": \"%s\", \"l1d_bytes\": %zu, "
      "\"l2_bytes\": %zu, \"l3_bytes\": %zu, \"governor\": \"%s\", "
      "\"commit\": \"%s\"}",
      sysconf(_SC_NPROCESSORS_ONLN),
      whtlab::simd::to_string(whtlab::simd::active_level()), caches.l1d_bytes,
      caches.l2_bytes, caches.l3_bytes,
      governor.empty() ? "unreadable" : json_safe(governor).c_str(),
      json_safe(commit).c_str());
  return buf;
}

int unset_whtlab_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    if (std::strncmp(*e, "WHTLAB_", 7) == 0 && eq != nullptr) {
      names.emplace_back(*e, static_cast<std::size_t>(eq - *e));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  return static_cast<int>(names.size());
}

Usage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto to_ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ULL;
  };
  Usage u;
  u.cpu_ns = to_ns(ru.ru_utime) + to_ns(ru.ru_stime);
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double self_peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string shm_leftovers(const std::string& prefix) {
  std::string out;
  DIR* dir = opendir("/dev/shm");
  if (dir == nullptr) return out;
  while (const dirent* entry = readdir(dir)) {
    if (std::strncmp(entry->d_name, prefix.c_str(), prefix.size()) == 0) {
      if (!out.empty()) out += ' ';
      out += entry->d_name;
    }
  }
  closedir(dir);
  return out;
}

}  // namespace perfbench
