#include "util/env.hpp"

#include <cstdlib>
#include <stdexcept>

namespace whtlab::util {

std::optional<std::string> env_string(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return std::nullopt;
  return std::string(value);
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const auto text = env_string(name);
  if (!text) return fallback;
  std::size_t pos = 0;
  const std::int64_t value = std::stoll(*text, &pos);
  if (pos != text->size()) {
    throw std::invalid_argument(std::string(name) + ": not an integer: " + *text);
  }
  return value;
}

}  // namespace whtlab::util
