// Compositions (ordered partitions) of an integer.
//
// Applying Equation 1 to WHT(2^n) chooses a composition n = n1 + ... + nt;
// the plan space, its counting recurrences, the samplers, and the DP search
// all enumerate compositions.  A composition of n with t >= 1 parts
// corresponds to a subset of the n-1 possible "cut points": bit i of the mask
// set means a cut after position i+1.  There are 2^(n-1) compositions, and
// mask 0 is the trivial one-part composition.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace whtlab::util {

/// Number of compositions of n with at least `min_parts` parts.
/// n must be in [1, 63].
std::uint64_t composition_count(int n, int min_parts = 1);

/// Decodes cut-point mask (0 <= mask < 2^(n-1)) into parts.
std::vector<int> composition_from_mask(int n, std::uint64_t mask);

/// Encodes parts back into the cut-point mask (inverse of the above).
std::uint64_t composition_to_mask(const std::vector<int>& parts);

/// Calls fn(const std::vector<int>& parts) for every composition of n with at
/// least `min_parts` and at most `max_parts` parts (0 = no cap), in mask
/// order.  Masks with too many cut bits are stepped over without being
/// decoded, so a capped walk costs what it visits, not 2^(n-1).  The vector
/// is reused between calls; copy it if you keep it.
template <typename Fn>
void for_each_composition(int n, int min_parts, int max_parts, Fn&& fn) {
  const std::uint64_t total = std::uint64_t{1} << (n - 1);
  const int max_cuts = max_parts > 0 ? max_parts - 1 : n;
  std::vector<int> parts;
  for (std::uint64_t mask = 0; mask < total; ++mask) {
    // Adding the lowest set bit skips only masks with even more bits set.
    while (mask < total && std::popcount(mask) > max_cuts) {
      mask += mask & (~mask + 1);
    }
    if (mask >= total) break;
    if (std::popcount(mask) + 1 < min_parts) continue;
    parts.clear();
    int run = 1;
    for (int i = 0; i < n - 1; ++i) {
      if ((mask >> i) & 1ULL) {
        parts.push_back(run);
        run = 1;
      } else {
        ++run;
      }
    }
    parts.push_back(run);
    fn(parts);
  }
}

}  // namespace whtlab::util
