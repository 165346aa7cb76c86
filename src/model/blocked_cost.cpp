#include "model/blocked_cost.hpp"

namespace whtlab::model {

BlockedFeatures schedule_features(const core::Schedule& schedule,
                                  const BlockedCostConfig& config) {
  BlockedFeatures features;
  const double n = static_cast<double>(std::uint64_t{1} << schedule.log2_size);
  const double width = config.vector_width > 1 ? config.vector_width : 1.0;

  // Butterfly term: n stages of N outputs each, retired `width` at a time.
  features.butterflies = n * static_cast<double>(schedule.log2_size) / width;

  // Memory term: each top-level round streams the full array once; the
  // whole-array working set (not the round's block size) decides which
  // level it streams from, because consecutive blocks evict each other
  // once N exceeds the level.
  const double swept = static_cast<double>(sweep_count(schedule)) * n;
  if (schedule.log2_size > config.blocking.l2_block_log2) {
    features.mem_doubles = swept;
  } else if (schedule.log2_size > config.blocking.l1_block_log2) {
    features.l2_doubles = swept;
  } else {
    features.l1_doubles = swept;
  }
  return features;
}

BlockedFeatures blocked_features(int n, const BlockedCostConfig& config) {
  return schedule_features(core::lower_size(n, config.blocking), config);
}

double schedule_cost(const core::Schedule& schedule,
                     const BlockedCostConfig& config) {
  const BlockedFeatures f = schedule_features(schedule, config);
  return config.butterfly_weight * f.butterflies +
         config.l1_sweep_weight * f.l1_doubles +
         config.l2_sweep_weight * f.l2_doubles +
         config.mem_sweep_weight * f.mem_doubles;
}

double blocked_cost(const core::Plan& plan, const BlockedCostConfig& config) {
  return schedule_cost(core::lower_plan(plan, config.blocking), config);
}

}  // namespace whtlab::model
