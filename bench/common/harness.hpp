// Shared experiment harness for the figure benches.
//
// Every figure binary:
//   * reads the same knobs (flags override env, env overrides defaults):
//       --samples / WHTLAB_SAMPLES          population size at n = 9   (10000)
//       --samples-large / WHTLAB_SAMPLES_LARGE   population at n = 18  (500)
//       --maxn / WHTLAB_MAXN                largest size in sweeps     (20)
//       --seed / WHTLAB_SEED                RNG seed                   (1)
//       --csv DIR                           also write series as CSV
//   * prints its series as an aligned text table (the figure's data), and
//   * documents which paper figure it regenerates.
//
// The n = 18 defaults are scaled down from the paper's 10,000 samples so the
// full bench sweep finishes in minutes; set WHTLAB_SAMPLES_LARGE=10000 for
// the full-size run (see README.md, "Paper figures").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/wht.hpp"
#include "core/plan.hpp"
#include "perf/events.hpp"
#include "util/cli.hpp"

namespace whtlab::bench {

struct HarnessOptions {
  int samples_small = 10000;
  int samples_large = 500;
  int max_n = 20;
  std::uint64_t seed = 1;
  std::string csv_dir;  ///< empty = no CSV output

  /// Parses flags/env.  Returns nullopt if the binary should exit (e.g.
  /// --help was requested).
  static std::optional<HarnessOptions> parse(int argc, char** argv);
};

/// A sampled population of WHT algorithms with their measured events
/// (paper Section 3: 10,000 random plans via recursive split uniform).
struct Population {
  int n = 0;
  std::vector<core::Plan> plans;
  std::vector<double> cycles;        ///< median measured cycles
  std::vector<double> instructions;  ///< interpreter op count (weighted)
  std::vector<double> misses;        ///< simulated L1 misses (Opteron geometry)
};

struct PopulationConfig {
  bool collect_misses = true;
  int repetitions = 5;
  int warmup = 1;
  // PAPI counted misses on the machine whose cycles it measured, so the
  // population's miss channel defaults to the *host* cache geometry; the
  // pure-model figures (e.g. fig03) use the Opteron geometry explicitly.
  cachesim::CacheConfig l1 = cachesim::CacheConfig::host_l1();
  cachesim::CacheConfig l2 = cachesim::CacheConfig::host_l2();
};

/// Draws `samples` plans of size 2^n and measures the event triple for each.
/// Progress goes to stderr (population builds take minutes at n = 18).
Population build_population(int n, int samples, std::uint64_t seed,
                            const PopulationConfig& config = {});

/// Applies the paper's outer-fence outlier rule to `primary` and returns the
/// indices kept (Section 3: discard beyond Q1 - 3*IQR / Q3 + 3*IQR).
std::vector<std::size_t> fence_filter(const std::vector<double>& primary);

/// The three canonical algorithms of Section 2, in presentation order.
struct CanonicalSuite {
  core::Plan iterative;
  core::Plan right_recursive;
  core::Plan left_recursive;
};
CanonicalSuite canonical_suite(int n);

/// "Best" plan a la the WHT package: wht::Planner with Strategy::kMeasure
/// (dynamic programming over measured runtime, binary/ternary splits; see
/// api/planner.hpp).  Deterministic given the machine; a few seconds at
/// n = 18+.
core::Plan best_plan_by_runtime(int n, int repetitions = 3);

/// Wraps a fixed plan in the façade (generated backend) so figure drivers
/// measure through the same code path users execute.
api::Transform fixed_transform(const core::Plan& plan);

/// Writes columns as CSV into options.csv_dir/<name>.csv (no-op when csv_dir
/// is empty).  All columns must have equal length.
void write_csv(const HarnessOptions& options, const std::string& name,
               const std::vector<std::string>& header,
               const std::vector<std::vector<double>>& columns);

/// Standard figure banner.
void print_banner(const std::string& figure, const std::string& description);

}  // namespace whtlab::bench
