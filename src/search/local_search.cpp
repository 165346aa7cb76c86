#include "search/local_search.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "search/sampler.hpp"
#include "util/compositions.hpp"

namespace whtlab::search {

namespace {

enum class Mutation { kResample, kCollapse, kExpand };

/// Preorder indices of nodes eligible for each mutation kind.
struct Candidates {
  std::vector<int> resample;  ///< any node with size >= 2
  std::vector<int> collapse;  ///< split nodes with size <= max_leaf
  std::vector<int> expand;    ///< leaves with size >= 2
};

void collect(const core::PlanNode& node, int& counter, int max_leaf,
             Candidates& out) {
  const int index = counter++;
  if (node.log2_size >= 2) {
    out.resample.push_back(index);
    if (node.kind == core::NodeKind::kSplit && node.log2_size <= max_leaf) {
      out.collapse.push_back(index);
    }
    if (node.kind == core::NodeKind::kSmall) {
      out.expand.push_back(index);
    }
  }
  for (const auto& child : node.children) {
    collect(*child, counter, max_leaf, out);
  }
}

/// Random composition of n with t >= 2 parts (mask 1 .. 2^(n-1)-1).
std::vector<int> random_split_parts(int n, util::Rng& rng) {
  const std::uint64_t mask =
      1 + rng.below((std::uint64_t{1} << (n - 1)) - 1);
  return util::composition_from_mask(n, mask);
}

/// Rebuilds `node`, replacing the subtree at preorder index `target` with
/// the mutated version.
core::Plan rebuild(const core::PlanNode& node, int& counter, int target,
                   Mutation mutation, const RecursiveSplitSampler& sampler,
                   util::Rng& rng) {
  const int index = counter++;
  if (index == target) {
    // (Indices after the target no longer matter: target was consumed and
    // counter only grows, so no later node can match it.)
    switch (mutation) {
      case Mutation::kResample:
        return sampler.sample(node.log2_size, rng);
      case Mutation::kCollapse:
        return core::Plan::small(node.log2_size);
      case Mutation::kExpand: {
        std::vector<core::Plan> children;
        for (int part : random_split_parts(node.log2_size, rng)) {
          children.push_back(sampler.sample(part, rng));
        }
        return core::Plan::split(std::move(children));
      }
    }
    throw std::logic_error("mutate_plan: unknown mutation");
  }
  if (node.kind == core::NodeKind::kSmall) {
    return core::Plan::small(node.log2_size);
  }
  std::vector<core::Plan> children;
  children.reserve(node.children.size());
  for (const auto& child : node.children) {
    children.push_back(rebuild(*child, counter, target, mutation, sampler, rng));
  }
  return core::Plan::split(std::move(children));
}

}  // namespace

core::Plan mutate_plan(const core::Plan& plan, int max_leaf, util::Rng& rng) {
  if (!plan.valid()) throw std::invalid_argument("mutate_plan: invalid plan");
  const RecursiveSplitSampler sampler(max_leaf);

  Candidates candidates;
  int counter = 0;
  collect(plan.root(), counter, max_leaf, candidates);
  if (candidates.resample.empty()) {
    // Only unit nodes (n == 1): the plan is small[1]; nothing to vary.
    return plan;
  }

  // Choose uniformly among the applicable mutation kinds.
  std::vector<std::pair<Mutation, const std::vector<int>*>> kinds;
  kinds.emplace_back(Mutation::kResample, &candidates.resample);
  if (!candidates.collapse.empty()) {
    kinds.emplace_back(Mutation::kCollapse, &candidates.collapse);
  }
  if (!candidates.expand.empty()) {
    kinds.emplace_back(Mutation::kExpand, &candidates.expand);
  }
  const auto& [mutation, pool] = kinds[static_cast<std::size_t>(
      rng.below(static_cast<std::uint64_t>(kinds.size())))];
  const int target = (*pool)[static_cast<std::size_t>(
      rng.below(static_cast<std::uint64_t>(pool->size())))];

  counter = 0;
  return rebuild(plan.root(), counter, target, mutation, sampler, rng);
}

AnnealResult anneal_search(int n,
                           const std::function<double(const core::Plan&)>& cost,
                           util::Rng& rng, const AnnealOptions& options) {
  if (!cost) throw std::invalid_argument("anneal_search: null cost");
  if (options.iterations < 1) {
    throw std::invalid_argument("anneal_search: iterations >= 1 required");
  }
  if (options.max_leaf < 1 || options.max_leaf > core::kMaxUnrolled) {
    throw std::invalid_argument("anneal_search: bad max_leaf");
  }

  const RecursiveSplitSampler sampler(options.max_leaf);

  AnnealResult result;
  const auto priced = [&cost, &options, &result](const core::Plan& plan) {
    if (options.cost_cache != nullptr) {
      const std::string key = plan.to_string();
      if (const auto hit = options.cost_cache->lookup_plan(key)) return *hit;
      const double value = cost(plan);
      ++result.evaluations;
      options.cost_cache->store_plan(key, value);
      return value;
    }
    ++result.evaluations;
    return cost(plan);
  };

  core::Plan current = sampler.sample(n, rng);
  double current_cost = priced(current);
  result.best = current;
  result.best_cost = current_cost;

  double temperature = options.initial_temperature;
  for (int step = 0; step < options.iterations; ++step) {
    core::Plan candidate = mutate_plan(current, options.max_leaf, rng);
    const double candidate_cost = priced(candidate);

    bool accept = candidate_cost < current_cost;
    if (!accept && temperature > 0.0 && current_cost > 0.0) {
      const double relative_regression =
          (candidate_cost - current_cost) / current_cost;
      accept = rng.uniform() < std::exp(-relative_regression / temperature);
    }
    if (accept) {
      current = std::move(candidate);
      current_cost = candidate_cost;
      ++result.accepted;
      if (current_cost < result.best_cost) {
        result.best = current;
        result.best_cost = current_cost;
      }
    }
    temperature *= options.cooling;
  }
  return result;
}

}  // namespace whtlab::search
