// Environment-variable lookups.
//
// The fig drivers scale with `WHTLAB_SAMPLES`, `WHTLAB_SAMPLES_LARGE`,
// `WHTLAB_MAXN` and `WHTLAB_SEED` (bench/common/harness.cpp), so every
// driver interprets the knobs identically; `WHTLAB_SIMD` and
// `WHTLAB_FAULTS` are read here too.  README's "Environment knobs" table
// lists them all.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace whtlab::util {

/// Raw lookup; nullopt when unset or empty.
std::optional<std::string> env_string(const char* name);

/// Integer lookup with default; throws std::invalid_argument on garbage so a
/// typo in an experiment invocation fails loudly instead of silently running
/// the wrong configuration.
std::int64_t env_int(const char* name, std::int64_t fallback);

}  // namespace whtlab::util
