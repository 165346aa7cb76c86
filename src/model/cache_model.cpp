#include "model/cache_model.hpp"

#include <stdexcept>
#include <vector>

#include "core/instrumented.hpp"
#include "model/analytic_misses.hpp"

namespace whtlab::model {

void CacheModelConfig::validate() const {
  const auto pow2 = [](std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; };
  if (!pow2(cache_elements) || !pow2(line_elements)) {
    throw std::invalid_argument("cache model parameters must be powers of two");
  }
  if (line_elements > cache_elements) {
    throw std::invalid_argument("line larger than cache");
  }
}

std::uint64_t compulsory_misses(const core::Plan& plan,
                                const CacheModelConfig& config) {
  config.validate();
  const std::uint64_t n = plan.size();
  // The transform touches elements 0..N-1 exactly; they occupy ceil(N/L)
  // contiguous lines.
  return (n + config.line_elements - 1) / config.line_elements;
}

std::uint64_t access_count(const core::Plan& plan) {
  return core::count_ops(plan).accesses();
}

std::uint64_t trace_direct_mapped_misses(const core::Plan& plan,
                                         const CacheModelConfig& config) {
  config.validate();
  const std::uint64_t n = plan.size();

  // Closed form: transform fits in the cache.  The N/L distinct lines map to
  // distinct sets (contiguous data, direct mapped), so after its compulsory
  // miss every line stays resident for the whole execution.
  if (n <= config.cache_elements) return compulsory_misses(plan, config);

  // General case: deterministic evaluation of the loop nest against a
  // tag-per-set table.  Element index -> line = idx/L -> set = line mod
  // (C/L).  All quantities are powers of two, so shifts/masks.
  const std::uint64_t num_sets = config.cache_elements / config.line_elements;
  std::uint32_t line_shift = 0;
  while ((std::uint64_t{1} << line_shift) < config.line_elements) ++line_shift;
  const std::uint64_t set_mask = num_sets - 1;

  constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
  std::vector<std::uint64_t> tags(num_sets, kInvalid);
  std::uint64_t misses = 0;
  auto sink = [&](std::uint64_t index, bool /*is_store*/) {
    const std::uint64_t line = index >> line_shift;
    const std::uint64_t set = line & set_mask;
    if (tags[set] != line) {
      tags[set] = line;
      ++misses;
    }
  };
  core::reference_stream(plan, sink);
  return misses;
}

std::uint64_t direct_mapped_misses(const core::Plan& plan,
                                   const CacheModelConfig& config) {
  return analytic_direct_mapped_misses(plan, config);
}

std::uint64_t direct_mapped_misses(const core::Plan& plan,
                                   const CacheModelConfig& config,
                                   CostCache* cache) {
  return analytic_direct_mapped_misses(plan, config, cache);
}

}  // namespace whtlab::model
