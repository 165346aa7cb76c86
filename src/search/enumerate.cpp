#include "search/enumerate.hpp"

#include <stdexcept>

#include "util/compositions.hpp"

namespace whtlab::search {

namespace {

const std::vector<core::Plan>& build(
    int n, int max_leaf, std::vector<std::vector<core::Plan>>& memo) {
  auto& cached = memo[static_cast<std::size_t>(n)];
  if (!cached.empty() || n == 0) return cached;
  std::vector<core::Plan> out;
  if (n <= max_leaf) out.push_back(core::Plan::small(n));
  if (n >= 2) {
    util::for_each_composition(n, 2, 0, [&](const std::vector<int>& parts) {
      // Cartesian product of children alternatives, odometer-style.
      std::vector<const std::vector<core::Plan>*> pools;
      pools.reserve(parts.size());
      for (int part : parts) pools.push_back(&build(part, max_leaf, memo));
      std::vector<std::size_t> index(parts.size(), 0);
      for (;;) {
        std::vector<core::Plan> children;
        children.reserve(parts.size());
        for (std::size_t i = 0; i < parts.size(); ++i) {
          children.push_back((*pools[i])[index[i]]);
        }
        out.push_back(core::Plan::split(std::move(children)));
        std::size_t pos = parts.size();
        while (pos > 0) {
          --pos;
          if (++index[pos] < pools[pos]->size()) break;
          index[pos] = 0;
          if (pos == 0) goto next_composition;
        }
      }
    next_composition:;
    });
  }
  cached = std::move(out);
  return cached;
}

}  // namespace

std::vector<core::Plan> enumerate_plans(int n, int max_leaf) {
  if (n < 1 || n > 12) throw std::invalid_argument("enumerate_plans: bad n");
  if (max_leaf < 1 || max_leaf > core::kMaxUnrolled) {
    throw std::invalid_argument("enumerate_plans: bad max_leaf");
  }
  std::vector<std::vector<core::Plan>> memo(static_cast<std::size_t>(n) + 1);
  return build(n, max_leaf, memo);
}

std::uint64_t for_each_plan(int n, int max_leaf,
                            const std::function<bool(const core::Plan&)>& fn) {
  const auto all = enumerate_plans(n, max_leaf);
  std::uint64_t visited = 0;
  for (const auto& plan : all) {
    ++visited;
    if (!fn(plan)) break;
  }
  return visited;
}

}  // namespace whtlab::search
