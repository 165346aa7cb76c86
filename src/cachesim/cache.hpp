// Set-associative LRU cache model.
//
// The paper measured L1 data-cache misses with PAPI on an Opteron (64 KB
// 2-way L1, 1 MB 16-way L2, 64-byte lines).  whtlab substitutes a
// trace-driven simulator: the executor's exact reference stream (see
// core/instrumented.hpp) is replayed through this model, which is the
// idealized version of what the hardware counter reports (no OS noise, no
// prefetcher).  Configurable size / line size / associativity; associativity
// 1 gives the direct-mapped cache assumed by the analytic model of
// Furis–Hitczenko–Johnson (AofA'05), enabling an exact cross-check
// (model/cache_model.hpp).
//
// Replacement is true LRU per set.  Writes allocate (write-allocate,
// write-back) — matching the Opteron's L1 behaviour; a store to an absent
// line counts as a miss.
#pragma once

#include <cstdint>
#include <vector>

namespace whtlab::cachesim {

struct CacheConfig {
  std::uint64_t size_bytes = 64 * 1024;
  std::uint32_t line_bytes = 64;
  std::uint32_t associativity = 2;

  std::uint64_t num_lines() const { return size_bytes / line_bytes; }
  std::uint64_t num_sets() const { return num_lines() / associativity; }

  /// Throws std::invalid_argument unless the geometry is indexable: the
  /// line size and the number of sets must be powers of two (bit-selection
  /// set mapping), the size an exact multiple of line * associativity.
  /// Associativity itself may be any positive count — modern L1s are often
  /// 12-way (48 KB), which is not a power of two.
  void validate() const;

  /// Opteron Model 224 L1D: 64 KB, 2-way, 64 B lines (the paper's machine).
  static CacheConfig opteron_l1() { return {64 * 1024, 64, 2}; }
  /// Opteron Model 224 L2: 1 MB, 16-way, 64 B lines.
  static CacheConfig opteron_l2() { return {1024 * 1024, 64, 16}; }
  /// L1D of the host the committed cells were measured on (48 KB, 12-way,
  /// 64 B): simulating it pairs the miss counts (the PAPI stand-in) with
  /// cycles measured on that host.
  static CacheConfig host_l1() { return {48 * 1024, 64, 12}; }
  /// This build machine's L2 (2 MB, 16-way, 64 B).
  static CacheConfig host_l2() { return {2 * 1024 * 1024, 64, 16}; }
  /// Direct-mapped cache of `lines` lines of `line_bytes` bytes — the
  /// geometry assumed by the analytic cache-miss model.
  static CacheConfig direct_mapped(std::uint64_t lines,
                                   std::uint32_t line_bytes) {
    return {lines * line_bytes, line_bytes, 1};
  }
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;

  std::uint64_t hits() const { return accesses - misses; }
  double miss_rate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(misses) /
                                     static_cast<double>(accesses);
  }
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// One access to byte address `addr`; returns true on hit and updates LRU
  /// state and statistics.
  bool access(std::uint64_t addr);

  /// Invalidate all lines; statistics are kept.
  void flush();

  /// Reset statistics; contents are kept.
  void reset_stats() { stats_ = {}; }

  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return config_; }

  /// True if the line containing addr is currently resident (no side effects).
  bool contains(std::uint64_t addr) const;

 private:
  CacheConfig config_;
  std::uint64_t set_mask_;
  std::uint32_t line_shift_;
  std::uint32_t assoc_;
  // ways_[set*assoc + i] = line number, i ordered most- to least-recent.
  std::vector<std::uint64_t> ways_;
  CacheStats stats_;

  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
};

}  // namespace whtlab::cachesim
