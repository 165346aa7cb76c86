// Runtime measurement protocol.
//
// Measuring µs-scale transforms reliably requires warmup (instruction cache,
// branch predictors, page faults), repetition, and a robust summary.  The
// protocol times a *set* of candidates that compute the same transform
// (measure_set); timing one engine alone (measure_run) is the set of one:
//
//   1. allocate one line-aligned work buffer and one pseudo-random master
//      copy for the whole set;
//   2. per candidate, one probe execution sizes its timed unit (unless
//      inner_loop is given; see below), then `warmup` untimed executions;
//   3. `repetitions` timed rounds, round-robin over the candidates still
//      timed (A B C, A B C, ...), so a slow phase of the host lands on every
//      candidate instead of looking like one candidate's cost.  Before
//      every untimed execution and every timed unit the work buffer is
//      restored from the master by memcpy (the WHT is data-oblivious, so
//      the copy only serves to keep values bounded; it is outside the timed
//      region but *warms the cache identically before every rep*, making
//      reps comparable);
//   4. the set is raced (Maron & Moore, "Hoeffding races", NIPS 1993):
//      after round one, a candidate whose sample is more than 2x that
//      round's best stops being timed and is priced at that one sample,
//      since its rank is already settled;
//   5. every other candidate reports the minimum, median, and mean of its
//      `repetitions` samples.
//
// Experiments use the median (robust to timer interrupts); the paper's
// single-shot PAPI readings correspond most closely to the minimum.
//
// For very small transforms a single execution is below timer resolution, so
// the timed unit is a batch of `inner_loop` back-to-back executions and the
// reported value is the per-execution average.  Unless inner_loop is given,
// step 2's probe picks a batch size targeting ~50 µs per timed unit.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "core/plan.hpp"

namespace whtlab::perf {

struct MeasureOptions {
  int warmup = 2;            ///< untimed executions before measuring
  int repetitions = 7;       ///< timed samples
  int inner_loop = 0;        ///< executions per timed sample; 0 = auto
  std::uint64_t seed = 0xC0FFEE;  ///< master-buffer fill
};

struct MeasureResult {
  double min_cycles = 0.0;
  double median_cycles = 0.0;
  double mean_cycles = 0.0;
  int inner_loop = 1;  ///< batch size actually used

  /// The experiment harness's "cycle count" — the median.
  double cycles() const { return median_cycles; }
};

/// One in-place execution over a buffer of doubles — whatever engine the
/// caller wants timed (core::execute, an api::ExecutorBackend, a SIMD
/// batch, ...).  The protocol owns the buffer; `run` must transform
/// x[0 .. size) in place.
using RunFn = std::function<void(double* x)>;

/// One candidate's outcome in a measured set.
struct SetResult {
  /// Its summary; a candidate raced out after round one reports its one
  /// sample as min, median and mean.
  MeasureResult result;
  /// What its run threw, if it threw: the set stopped running it there and
  /// went on timing the others (`result` is then meaningless).
  std::exception_ptr error;
};

/// The measurement protocol itself, engine-agnostic: times every run of
/// `runs` on one shared master-restored aligned buffer of `size` doubles
/// per the steps above, and returns one result per run, in order.  An
/// explicit inner_loop applies to every candidate.  Throws std::invalid_argument on
/// repetitions < 1 or warmup < 0.  Every other measurement entry point is a
/// thin wrapper over this, so the protocol exists exactly once.
std::vector<SetResult> measure_set(const std::vector<RunFn>& runs,
                                   std::uint64_t size,
                                   const MeasureOptions& options = {});

/// The set of one: times `run` alone (probe + warmup + repetitions x
/// inner_loop executions), rethrowing whatever it threw.
MeasureResult measure_run(const RunFn& run, std::uint64_t size,
                          const MeasureOptions& options = {});

/// Measures `plan` per the protocol above via core::execute.
MeasureResult measure_plan(const core::Plan& plan,
                           const MeasureOptions& options = {});

}  // namespace whtlab::perf
