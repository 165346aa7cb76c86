#include "core/codelet.hpp"

#include <stdexcept>
#include <string>

namespace whtlab::core {

CodeletFn codelet(int k) {
  if (k < 1 || k > kMaxUnrolled) {
    throw std::out_of_range("codelet size out of range: " + std::to_string(k));
  }
  return codelet_table()[static_cast<std::size_t>(k)];
}

}  // namespace whtlab::core
