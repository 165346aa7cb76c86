#include "core/executor.hpp"

namespace whtlab::core {

void execute_node(const PlanNode& node, double* x, std::ptrdiff_t stride,
                  const std::array<CodeletFn, kMaxUnrolled + 1>& table) {
  if (node.kind == NodeKind::kSmall) {
    table[static_cast<std::size_t>(node.log2_size)](x, stride);
    return;
  }
  const std::size_t n = static_cast<std::size_t>(node.size());
  std::size_t r = n;
  std::size_t s = 1;
  // Equation 1 is a matrix product, so the rightmost factor applies first:
  // children are processed last-to-first, the last child at unit stride.
  // This orientation is what makes the *right* recursive plan the
  // unit-stride recursion (the paper's cache-friendly canonical algorithm).
  for (std::size_t i = node.children.size(); i-- > 0;) {
    const PlanNode& child = *node.children[i];
    const std::size_t ni = static_cast<std::size_t>(child.size());
    r /= ni;
    for (std::size_t j = 0; j < r; ++j) {
      double* block = x + static_cast<std::ptrdiff_t>(j * ni * s) * stride;
      for (std::size_t k = 0; k < s; ++k) {
        execute_node(child, block + static_cast<std::ptrdiff_t>(k) * stride,
                     static_cast<std::ptrdiff_t>(s) * stride, table);
      }
    }
    s *= ni;
  }
}

void execute(const Plan& plan, double* x) {
  execute_node(plan.root(), x, 1, codelet_table());
}

}  // namespace whtlab::core
