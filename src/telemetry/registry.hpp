// telemetry::Registry — the per-(n, backend, shape) accumulator table the
// Engine records into and the daemon exports from.
//
// Keyed exactly like the Engine's transform cache — (n, backend) — plus a
// single/batch shape bit, because the two serve paths have different
// per-vector cost structure (a batched vector amortizes pass overhead and
// rides the interleaved kernels) and folding them into one series would
// blur both.  It is also the Engine's one counter table: every served
// request is one observation in the series of the backend that ran it, and
// a batch's observation carries its vector count, so Engine::stats() sums
// its request, batch and vector totals from here.  Series are created on
// first touch and never erased, so the `Accumulator*` returned by series()
// is stable for the Registry's lifetime and can be cached next to the
// Engine's Entry — the hot recording path never takes the registry mutex.
//
// snapshot() returns plain values; to_text() renders them one line per
// metric in the Prometheus exposition idiom (`name{labels} value`), sorted
// by (n, backend, shape) so successive scrapes diff cleanly.  Every series
// holds lifetime totals, so a scrape never reports fewer observations than
// the one before it, and the traffic between two scrapes is their
// difference.  `whtd --stats` prints this exposition.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "telemetry/accumulator.hpp"

namespace whtlab::telemetry {

/// One exported series: its key plus a merged point-in-time Stats value.
struct SeriesSnapshot {
  int n = 0;
  std::string backend;
  bool batch = false;  ///< false: single-vector path, true: batched path
  Stats stats;
};

using Snapshot = std::vector<SeriesSnapshot>;

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The accumulator for (n, backend, shape); created on first touch.  The
  /// returned reference is stable for the Registry's lifetime — cache the
  /// pointer and record without locking.
  Accumulator& series(int n, const std::string& backend, bool batch);

  /// Point-in-time copy of every series, sorted by (n, backend, shape).
  Snapshot snapshot() const;

 private:
  using Key = std::tuple<int, std::string, bool>;

  mutable std::mutex mutex_;  ///< guards the map structure, not recording
  std::map<Key, std::unique_ptr<Accumulator>> series_;
};

/// Prometheus-style text exposition of a snapshot: for every series,
///   wht_observations_total{n="10",backend="simd",shape="single"} 81
///   wht_cycles_per_vector_mean{...} 3021.5
///   wht_cycles_per_vector_p50{...} 4095
///   wht_cycles_per_vector_p99{...} 8191
///   wht_cycles_per_vector_min{...} 2480
///   wht_cycles_per_vector_max{...} 19881
/// Observations count requests since the series was created: one per
/// single-vector request on the single path, and one per batch dispatch on
/// the batch path, whatever its vector count (Stats::vectors holds that, and
/// is not exported here).  So wht_observations_total is a true counter; the
/// value distribution is cycles (ticks) per served vector.  Stable order,
/// one line per metric, newline-terminated.
std::string to_text(const Snapshot& snapshot);

}  // namespace whtlab::telemetry
