#include "common/harness.hpp"

#include <cstdio>

#include "search/sampler.hpp"
#include "stats/descriptive.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace whtlab::bench {

std::optional<HarnessOptions> HarnessOptions::parse(int argc, char** argv) {
  HarnessOptions options;
  options.samples_small =
      static_cast<int>(util::env_int("WHTLAB_SAMPLES", options.samples_small));
  options.samples_large = static_cast<int>(
      util::env_int("WHTLAB_SAMPLES_LARGE", options.samples_large));
  options.max_n =
      static_cast<int>(util::env_int("WHTLAB_MAXN", options.max_n));
  options.seed = static_cast<std::uint64_t>(
      util::env_int("WHTLAB_SEED", static_cast<std::int64_t>(options.seed)));

  util::Cli cli;
  cli.add_flag("samples", "population size for the in-cache experiment (n=9)");
  cli.add_flag("samples-large", "population size for the out-of-cache experiment (n=18)");
  cli.add_flag("maxn", "largest transform log2-size in sweeps");
  cli.add_flag("seed", "RNG seed");
  cli.add_flag("csv", "directory for CSV output");
  if (!cli.parse(argc, argv)) return std::nullopt;

  options.samples_small = static_cast<int>(
      cli.get_int("samples", options.samples_small));
  options.samples_large = static_cast<int>(
      cli.get_int("samples-large", options.samples_large));
  options.max_n = static_cast<int>(cli.get_int("maxn", options.max_n));
  options.seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<std::int64_t>(options.seed)));
  options.csv_dir = cli.get("csv");
  return options;
}

Population build_population(int n, int samples, std::uint64_t seed,
                            const PopulationConfig& config) {
  Population pop;
  pop.n = n;
  pop.plans.reserve(static_cast<std::size_t>(samples));
  pop.cycles.reserve(static_cast<std::size_t>(samples));
  pop.instructions.reserve(static_cast<std::size_t>(samples));
  pop.misses.reserve(static_cast<std::size_t>(samples));

  util::Rng rng(seed);
  search::RecursiveSplitSampler sampler(core::kMaxUnrolled);
  perf::MeasureOptions measure;
  measure.repetitions = config.repetitions;
  measure.warmup = config.warmup;
  // Instruction/miss channels stay on the shared event facade; only the
  // cycles channel moves to the api::Transform so populations are timed on
  // the code path users execute.
  perf::EventConfig events;
  events.collect_cycles = false;
  events.collect_misses = config.collect_misses;
  events.l1 = config.l1;
  events.l2 = config.l2;

  for (int i = 0; i < samples; ++i) {
    core::Plan plan = sampler.sample(n, rng);
    // Minimum of the repetitions = least-interfered run, see perf/events.hpp.
    pop.cycles.push_back(fixed_transform(plan).measure(measure).min_cycles);
    const auto counts = perf::collect_events(plan, events);
    pop.instructions.push_back(counts.instructions);
    pop.misses.push_back(static_cast<double>(counts.l1_misses));
    pop.plans.push_back(std::move(plan));
    if ((i + 1) % 500 == 0 || i + 1 == samples) {
      std::fprintf(stderr, "  population n=%d: %d/%d\r", n, i + 1, samples);
    }
  }
  std::fprintf(stderr, "\n");
  return pop;
}

std::vector<std::size_t> fence_filter(const std::vector<double>& primary) {
  return stats::inside_fences(primary, 3.0);
}

CanonicalSuite canonical_suite(int n) {
  return {core::Plan::iterative(n), core::Plan::right_recursive(n),
          core::Plan::left_recursive(n)};
}

core::Plan best_plan_by_runtime(int n, int repetitions) {
  perf::MeasureOptions measure;
  measure.repetitions = repetitions;
  measure.warmup = 1;
  // kMeasure = DP over measured cycles, ternary splits while candidates are
  // microsecond-scale and binary beyond (the package's practice).
  return api::Planner()
      .strategy(api::Strategy::kMeasure)
      .measure_options(measure)
      .plan(n)
      .plan();
}

api::Transform fixed_transform(const core::Plan& plan) {
  return api::Planner().fixed(plan).plan();
}

void write_csv(const HarnessOptions& options, const std::string& name,
               const std::vector<std::string>& header,
               const std::vector<std::vector<double>>& columns) {
  if (options.csv_dir.empty()) return;
  util::CsvWriter csv(options.csv_dir + "/" + name + ".csv");
  csv.header(header);
  if (columns.empty()) return;
  const std::size_t rows = columns.front().size();
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> cells;
    cells.reserve(columns.size());
    for (const auto& column : columns) {
      cells.push_back(util::CsvWriter::num(column.at(r)));
    }
    csv.row(cells);
  }
  std::printf("[csv] wrote %s/%s.csv\n", options.csv_dir.c_str(), name.c_str());
}

void print_banner(const std::string& figure, const std::string& description) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("  (Andrews & Johnson, \"Performance Analysis of a Family of WHT\n");
  std::printf("   Algorithms\", IPPS 2007; see README.md, \"Paper figures\")\n");
  std::printf("================================================================\n");
}

}  // namespace whtlab::bench
