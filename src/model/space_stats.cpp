#include "model/space_stats.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "model/instruction_model.hpp"
#include "util/compositions.hpp"

namespace whtlab::model {

namespace {

void check_args(int n, const SpaceOptions& options) {
  if (n < 1 || n > 40) throw std::invalid_argument("space stats: bad n");
  if (options.max_leaf < 1 || options.max_leaf > core::kMaxUnrolled) {
    throw std::invalid_argument("space stats: bad max_leaf");
  }
}

/// DP for an extreme (minimize = true/false) of the modeled instruction
/// count, with witness plans.
ExtremeResult extreme(int n, const SpaceOptions& options, bool minimize) {
  check_args(n, options);
  std::vector<double> best(static_cast<std::size_t>(n) + 1, 0.0);
  std::vector<core::Plan> witness(static_cast<std::size_t>(n) + 1);
  for (int m = 1; m <= n; ++m) {
    bool have = false;
    double best_value = 0.0;
    core::Plan best_plan;
    if (m <= options.max_leaf) {
      best_value = leaf_cost(m, options.weights);
      best_plan = core::Plan::small(m);
      have = true;
    }
    if (m >= 2) {
      util::for_each_composition(m, 2, 0, [&](const std::vector<int>& parts) {
        double value = split_overhead(m, parts, options.weights);
        for (int part : parts) {
          value += child_multiplicity(m, part) *
                   best[static_cast<std::size_t>(part)];
        }
        const bool better =
            !have || (minimize ? value < best_value : value > best_value);
        if (better) {
          std::vector<core::Plan> children;
          children.reserve(parts.size());
          for (int part : parts) {
            children.push_back(witness[static_cast<std::size_t>(part)]);
          }
          best_value = value;
          best_plan = core::Plan::split(std::move(children));
          have = true;
        }
      });
    }
    // The extreme of a subtree cost composes because child costs enter the
    // parent cost with positive multipliers (N/Ni > 0): substituting a
    // child-optimal subtree can only improve the parent.
    best[static_cast<std::size_t>(m)] = best_value;
    witness[static_cast<std::size_t>(m)] = std::move(best_plan);
  }
  return {best[static_cast<std::size_t>(n)],
          witness[static_cast<std::size_t>(n)]};
}

}  // namespace

ExtremeResult min_instruction_count(int n, const SpaceOptions& options) {
  return extreme(n, options, /*minimize=*/true);
}

ExtremeResult max_instruction_count(int n, const SpaceOptions& options) {
  return extreme(n, options, /*minimize=*/false);
}

MomentsResult instruction_moments(int n, const SpaceOptions& options) {
  check_args(n, options);
  const std::size_t size = static_cast<std::size_t>(n) + 1;
  std::vector<double> mean(size, 0.0);
  std::vector<double> var(size, 0.0);
  std::vector<double> kappa3(size, 0.0);  // third central moment

  for (int m = 1; m <= n; ++m) {
    double count = 0.0;   // number of options
    double sum_e = 0.0;   // sum of E[X | option]
    double sum_e2 = 0.0;  // sum of E[X^2 | option]
    double sum_e3 = 0.0;  // sum of E[X^3 | option]
    auto add_option = [&](double e, double v, double k3) {
      count += 1.0;
      sum_e += e;
      sum_e2 += v + e * e;
      // E[Y^3] = kappa3 + 3*mu*sigma^2 + mu^3 for any random variable Y.
      sum_e3 += k3 + 3.0 * e * v + e * e * e;
    };
    if (m <= options.max_leaf) {
      add_option(leaf_cost(m, options.weights), 0.0, 0.0);
    }
    if (m >= 2) {
      util::for_each_composition(m, 2, 0, [&](const std::vector<int>& parts) {
        // Conditional on this composition, X = overhead + sum_i w_i * X_i
        // with independent subtrees, so central moments are additive in
        // w_i^p * kappa_p(X_i).
        double e = split_overhead(m, parts, options.weights);
        double v = 0.0;
        double k3 = 0.0;
        for (int part : parts) {
          const double w = child_multiplicity(m, part);
          const auto p = static_cast<std::size_t>(part);
          e += w * mean[p];
          v += w * w * var[p];
          k3 += w * w * w * kappa3[p];
        }
        add_option(e, v, k3);
      });
    }
    const auto mi = static_cast<std::size_t>(m);
    const double m1 = sum_e / count;
    const double m2 = sum_e2 / count;
    const double m3 = sum_e3 / count;
    mean[mi] = m1;
    var[mi] = m2 - m1 * m1;
    kappa3[mi] = m3 - 3.0 * m1 * m2 + 2.0 * m1 * m1 * m1;
  }

  MomentsResult out;
  const auto ni = static_cast<std::size_t>(n);
  out.mean = mean[ni];
  out.variance = var[ni];
  out.skewness =
      var[ni] > 0.0 ? kappa3[ni] / std::pow(var[ni], 1.5) : 0.0;
  return out;
}

namespace {

using Pmf = std::map<std::int64_t, double>;

/// out += weight * (a shifted by `shift` and scaled in value by `scale`).
void accumulate_scaled(Pmf& out, const Pmf& a, double scale, double shift,
                       double weight) {
  for (const auto& [value, prob] : a) {
    const auto key = static_cast<std::int64_t>(
        std::llround(static_cast<double>(value) * scale + shift));
    out[key] += prob * weight;
  }
}

/// Convolution of scaled child PMFs: result value = sum_i w_i * X_i.
Pmf convolve_children(const std::vector<const Pmf*>& children,
                      const std::vector<double>& scales) {
  Pmf acc;
  acc[0] = 1.0;
  for (std::size_t i = 0; i < children.size(); ++i) {
    Pmf next;
    for (const auto& [base, prob] : acc) {
      for (const auto& [value, child_prob] : *children[i]) {
        const auto key = base + static_cast<std::int64_t>(std::llround(
                                    static_cast<double>(value) * scales[i]));
        next[key] += prob * child_prob;
      }
    }
    acc = std::move(next);
  }
  return acc;
}

void coarsen(Pmf& pmf, std::size_t max_support) {
  while (pmf.size() > max_support) {
    // Merge each pair of adjacent entries into their probability-weighted
    // midpoint; halves the support per pass.
    Pmf merged;
    auto it = pmf.begin();
    while (it != pmf.end()) {
      auto first = it++;
      if (it == pmf.end()) {
        merged[first->first] += first->second;
        break;
      }
      auto second = it++;
      const double p = first->second + second->second;
      const double value =
          (static_cast<double>(first->first) * first->second +
           static_cast<double>(second->first) * second->second) /
          p;
      merged[static_cast<std::int64_t>(std::llround(value))] += p;
    }
    pmf = std::move(merged);
  }
}

}  // namespace

std::map<std::int64_t, double> instruction_distribution(
    int n, const SpaceOptions& options, std::size_t max_support) {
  check_args(n, options);
  if (max_support < 2) throw std::invalid_argument("max_support too small");
  std::vector<Pmf> dist(static_cast<std::size_t>(n) + 1);

  for (int m = 1; m <= n; ++m) {
    double option_count = m <= options.max_leaf ? 1.0 : 0.0;
    if (m >= 2) {
      option_count += static_cast<double>(util::composition_count(m, 2));
    }
    const double option_weight = 1.0 / option_count;
    Pmf pmf;
    if (m <= options.max_leaf) {
      const auto key = static_cast<std::int64_t>(
          std::llround(leaf_cost(m, options.weights)));
      pmf[key] += option_weight;
    }
    if (m >= 2) {
      util::for_each_composition(m, 2, 0, [&](const std::vector<int>& parts) {
        std::vector<const Pmf*> children;
        std::vector<double> scales;
        children.reserve(parts.size());
        scales.reserve(parts.size());
        for (int part : parts) {
          children.push_back(&dist[static_cast<std::size_t>(part)]);
          scales.push_back(child_multiplicity(m, part));
        }
        Pmf conv = convolve_children(children, scales);
        accumulate_scaled(pmf, conv, 1.0,
                          split_overhead(m, parts, options.weights),
                          option_weight);
      });
    }
    coarsen(pmf, max_support);
    dist[static_cast<std::size_t>(m)] = std::move(pmf);
  }
  return dist[static_cast<std::size_t>(n)];
}

}  // namespace whtlab::model
