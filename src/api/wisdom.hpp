// Plan-cache "wisdom" — the FFTW wisdom analogue.
//
// kMeasure and kSampled pay a real search cost per (machine, size); a
// Wisdom file persists the Planner's winners so that cost is paid once per
// machine.  Entries are keyed by everything that changes the answer:
//
//   (cpu level, n, strategy, backend)  ->  plan
//
// where the cpu level is the runtime-dispatched SIMD level (a plan tuned on
// an AVX-512 host is not evidence about a scalar one).  Plans round-trip
// through the core::plan_io grammar, so a wisdom file is a human-readable
// tab-separated text file:
//
//   # whtlab wisdom v1
//   avx512<TAB>16<TAB>measure<TAB>simd<TAB>split[small[4],...]
//
// Earlier builds also wrote `@prop<TAB>key<TAB>value` lines (a host fit of
// a since-deleted "fused" cost model); the loader skips them, so those
// files still load every plan, and the next save drops them.  Plan-oblivious
// backends ("fused") record no entries; keys older builds wrote for them
// still load, and so do rows keyed by strategies older builds planned with
// ("anneal", "exhaustive"), which no lookup asks for.
//
// Hook it up with Planner::wisdom_file(path): lookups hit before any
// search; misses run the strategy and append the winner.
//
// Key granularity: the tuple above is what changes the answer *shape*;
// finer planner knobs (samples, seed, measure options, thread count) tune
// the same search and are deliberately not part of the key — a winner
// recorded under one is a valid (if possibly stale) plan under another.
// Every search admits the same leaves (up to core::kMaxUnrolled), so a
// hit is used verbatim.
//
// Concurrency: save() always writes a temp file in the same directory and
// renames it over the target, so readers never observe a torn file.  The
// WisdomRegistry below is the process-wide in-memory layer the Planner
// uses: one cached Wisdom per path (reloaded when the file changes
// underneath), and inserts that re-merge the on-disk state under a process
// lock before the atomic rename — concurrent planners in one process can
// no longer lose each other's winners.  Across processes, save_merged()
// wraps the read-merge-rename in an advisory flock on `path`.lock, so
// concurrent tuning processes sharing one wisdom file (the registry's
// flush path) never drop each other's entries either.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/plan.hpp"

namespace whtlab::api {

class Wisdom {
 public:
  struct Key {
    std::string cpu;       ///< simd::to_string(active level)
    int n = 0;             ///< transform size log2
    std::string strategy;  ///< to_string(Strategy)
    std::string backend;   ///< registry name

    bool operator<(const Key& other) const {
      return std::tie(cpu, n, strategy, backend) <
             std::tie(other.cpu, other.n, other.strategy, other.backend);
    }
  };

  Wisdom() = default;

  /// Parses a wisdom file.  A missing file yields empty wisdom (first run);
  /// a malformed line throws std::invalid_argument with the line number —
  /// silently dropping tuned plans would hide corruption.
  static Wisdom load(const std::string& path);

  /// Writes all entries (sorted, stable) atomically: to a temp file beside
  /// `path`, renamed over it.  Throws std::runtime_error when the file
  /// cannot be written.  Overwrite semantics: the previous file content is
  /// replaced whole (use save_merged for the lose-nothing path).
  void save(const std::string& path) const;

  /// Cross-process-safe save: under an advisory file lock (`path`.lock,
  /// flock) the current on-disk state is re-read, this wisdom is merged
  /// over it (this wins collisions), and the union is written atomically.
  /// Concurrent *processes* interleaving save_merged never drop each
  /// other's entries — the read-merge-rename is one critical section.
  /// The lock file is reclaimed on release (unlink-while-holding +
  /// revalidate-after-acquire, see wisdom.cpp), so no `*.lock` litter
  /// outlives the save.  Returns the merged state (what the file now
  /// holds).
  Wisdom save_merged(const std::string& path) const;

  /// The cached plan for `key`, or nullptr.
  const core::Plan* lookup(const Key& key) const;

  /// Inserts or replaces the entry for `key`.
  void insert(const Key& key, core::Plan plan);

  /// Merges `other` into this wisdom; entries from `other` win on key
  /// collisions (newest writer has the freshest measurement).
  void merge_from(const Wisdom& other);

  /// Every recorded key, sorted (the map order) — the enumeration hook for
  /// consumers that want to act on recorded shapes rather than look one up
  /// (Engine::prewarm rebuilds Transforms for them at daemon startup).
  std::vector<Key> keys() const;

  std::size_t size() const { return entries_.size(); }

 private:
  std::map<Key, core::Plan> entries_;
};

/// Process-wide in-memory wisdom layer, one cached Wisdom per file path.
/// All access is serialized by an internal mutex; lookups return copies so
/// no reference outlives the lock.
class WisdomRegistry {
 public:
  static WisdomRegistry& global();

  /// The plan recorded for (path, key), if any.  Loads the file on first
  /// touch and transparently reloads it when its mtime/size changes
  /// (another process — or a test — rewrote it).
  std::optional<core::Plan> lookup(const std::string& path,
                                   const Wisdom::Key& key);

  /// Records a winner: re-reads the current on-disk state, merges every
  /// in-memory entry for `path` over it, and saves atomically — all under
  /// the registry lock, so in-process writers cannot drop each other's
  /// entries.
  void insert(const std::string& path, const Wisdom::Key& key,
              core::Plan plan);

  /// Best-effort durability barrier: re-merges the cached in-memory state
  /// for `path` over the current on-disk file and saves atomically (no-op
  /// when nothing is cached).  Every insert already persists eagerly, so
  /// this exists for lifecycle edges — a draining daemon calls it so a
  /// winner recorded just before a planned restart provably survives into
  /// the successor's prewarm, even if a concurrent writer raced the
  /// original save.
  void flush(const std::string& path);

  /// Drops the cached state for `path` (testing hook; the next touch
  /// reloads from disk).
  void invalidate(const std::string& path);

 private:
  WisdomRegistry() = default;
  struct Impl;
  Impl& impl();
};

}  // namespace whtlab::api
