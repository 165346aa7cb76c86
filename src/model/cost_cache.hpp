// Per-planner memoization of model evaluations across a search.
//
// Every model-driven search prices many candidate plans, and those
// candidates overlap heavily: DP assembles each size-2^m candidate from the
// already-found best subplans of its parts, and the sampler draws duplicate
// shapes.  Before this cache existed every candidate re-walked its full
// tree from scratch.  A CostCache remembers two granularities:
//
//   * whole-plan model values, keyed by the plan's grammar string plus a
//     caller-chosen tag (geometry / backend width — anything that changes
//     the answer), consulted by the search that revisits candidates
//     (search/pruned_search.hpp) before invoking the cost function; DP
//     never does, since each of its candidates is a distinct tree;
//   * per-subtree miss counts, keyed by (subtree grammar, stride class),
//     consulted by the analytic cache model's recursion
//     (model/analytic_misses.hpp) so a subtree shared by many candidates
//     is priced once per stride it appears at.
//
// A cache instance is only coherent for one pricing configuration; the
// api::Planner creates a fresh one per plan() call and threads it through
// both the model and the search options.  Not thread-safe (searches are
// single-threaded); keys are exact strings, so hits can never alias.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

namespace whtlab::model {

class CostCache {
 public:
  struct Stats {
    std::uint64_t plan_hits = 0;
    std::uint64_t plan_misses = 0;
    std::uint64_t subtree_hits = 0;
    std::uint64_t subtree_misses = 0;
  };

  /// Whole-plan model value for `key` (grammar + configuration tag).
  std::optional<double> lookup_plan(const std::string& key) {
    const auto it = plan_values_.find(key);
    if (it == plan_values_.end()) {
      ++stats_.plan_misses;
      return std::nullopt;
    }
    ++stats_.plan_hits;
    return it->second;
  }
  void store_plan(const std::string& key, double value) {
    plan_values_.emplace(key, value);
  }

  /// Per-subtree miss count for `key` (subtree grammar + stride class).
  std::optional<std::uint64_t> lookup_subtree(const std::string& key) {
    const auto it = subtree_values_.find(key);
    if (it == subtree_values_.end()) {
      ++stats_.subtree_misses;
      return std::nullopt;
    }
    ++stats_.subtree_hits;
    return it->second;
  }
  void store_subtree(const std::string& key, std::uint64_t value) {
    subtree_values_.emplace(key, value);
  }

  const Stats& stats() const { return stats_; }
  std::size_t size() const {
    return plan_values_.size() + subtree_values_.size();
  }
  void clear() {
    plan_values_.clear();
    subtree_values_.clear();
    stats_ = Stats{};
  }

 private:
  std::unordered_map<std::string, double> plan_values_;
  std::unordered_map<std::string, std::uint64_t> subtree_values_;
  Stats stats_;
};

}  // namespace whtlab::model
