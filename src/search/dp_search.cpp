#include "search/dp_search.hpp"

#include <stdexcept>

#include "util/compositions.hpp"

namespace whtlab::search {

DpResult dp_search(int n, const CostFn& cost, const DpOptions& options) {
  if (n < 1 || n > 40) throw std::invalid_argument("dp_search: bad n");
  if (options.max_leaf < 1 || options.max_leaf > core::kMaxUnrolled) {
    throw std::invalid_argument("dp_search: bad max_leaf");
  }
  if (!cost) throw std::invalid_argument("dp_search: null cost function");

  DpResult result;
  result.best_by_size.resize(static_cast<std::size_t>(n) + 1);
  result.cost_by_size.assign(static_cast<std::size_t>(n) + 1, 0.0);

  for (int m = 1; m <= n; ++m) {
    bool have = false;
    core::Plan best_plan;
    double best_cost = 0.0;
    auto consider = [&](core::Plan candidate) {
      const double c = cost(candidate);
      ++result.evaluations;
      if (!have || c < best_cost) {
        best_cost = c;
        best_plan = std::move(candidate);
        have = true;
      }
    };
    if (m <= options.max_leaf) consider(core::Plan::small(m));
    if (m >= 2) {
      util::for_each_composition(
          m, 2, options.max_parts, [&](const std::vector<int>& parts) {
            std::vector<core::Plan> children;
            children.reserve(parts.size());
            for (int part : parts) {
              children.push_back(
                  result.best_by_size[static_cast<std::size_t>(part)]);
            }
            consider(core::Plan::split(std::move(children)));
          });
    }
    if (!have) throw std::logic_error("dp_search: no candidate at size " +
                                      std::to_string(m));
    result.best_by_size[static_cast<std::size_t>(m)] = best_plan;
    result.cost_by_size[static_cast<std::size_t>(m)] = best_cost;
  }
  result.plan = result.best_by_size[static_cast<std::size_t>(n)];
  result.cost = result.cost_by_size[static_cast<std::size_t>(n)];
  return result;
}

}  // namespace whtlab::search
