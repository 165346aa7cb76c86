#include "core/schedule.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace whtlab::core {

namespace {

/// Splits the stages [lo, hi) into ceil(r / max_radix) near-equal fused
/// passes (never a radix-1 tail when it can be avoided: 7 stages at radix 8
/// become 3+2+2, not 3+3+1).
std::vector<SchedulePass> radix_passes(int lo, int hi, int max_radix) {
  std::vector<SchedulePass> passes;
  const int r = hi - lo;
  if (r <= 0) return passes;
  const int count = (r + max_radix - 1) / max_radix;
  const int base = r / count;
  int extra = r % count;
  int stage = lo;
  for (int i = 0; i < count; ++i) {
    const int radix = base + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    passes.push_back({stage, radix});
    stage += radix;
  }
  return passes;
}

void validate_config(const BlockingConfig& config) {
  if (config.unit_log2 < 1 || config.unit_log2 > kMaxUnrolled) {
    throw std::invalid_argument("BlockingConfig: unit_log2 out of [1, " +
                                std::to_string(kMaxUnrolled) + "]");
  }
  // Radixes are capped by what the executors can actually run: the scalar
  // fallback indexes the codelet table (<= kMaxUnrolled) and the generic
  // lockstep leaf sizes its register array the same way.
  if (config.max_radix_log2 < 1 || config.max_radix_log2 > kMaxUnrolled) {
    throw std::invalid_argument("BlockingConfig: max_radix_log2 out of [1, " +
                                std::to_string(kMaxUnrolled) + "]");
  }
  if (config.stream_radix_log2 < 1 ||
      config.stream_radix_log2 > kMaxUnrolled) {
    throw std::invalid_argument("BlockingConfig: stream_radix_log2 out of [1, " +
                                std::to_string(kMaxUnrolled) + "]");
  }
}

}  // namespace

Schedule lower_size(int n, const BlockingConfig& config) {
  if (n < 1) throw std::invalid_argument("lower_size: n must be >= 1");
  validate_config(config);

  const int unit = std::min(n, config.unit_log2);
  const int c0 = std::clamp(config.l1_block_log2, unit, n);
  const int c1 = std::clamp(config.l2_block_log2, c0, n);

  // L1 round: a 2^c0 block is carried from the contiguous unit pass through
  // every strided pass below c0 while L1-resident.
  ScheduleRound l1;
  l1.block_log2 = c0;
  l1.passes.push_back({0, unit});
  for (const SchedulePass& p : radix_passes(unit, c0, config.max_radix_log2)) {
    l1.passes.push_back(p);
  }

  Schedule schedule;
  schedule.log2_size = n;
  if (c1 > c0) {
    // L2 round: sweep L1 sub-blocks first, then the stages [c0, c1) while
    // the 2^c1 block is still L2-resident — one DRAM pass covers all of
    // [0, c1).
    ScheduleRound l2;
    l2.block_log2 = c1;
    l2.inner.push_back(std::move(l1));
    l2.passes = radix_passes(c0, c1, config.max_radix_log2);
    schedule.rounds.push_back(std::move(l2));
  } else {
    schedule.rounds.push_back(std::move(l1));
  }

  // Stages above the largest cache block: no reuse to exploit, so each
  // fused pass is its own full-array sweep (radix-2^k: one sweep retires k
  // stages — the memory-bound regime's only lever, hence the wider
  // streaming radix cap).
  for (const SchedulePass& p : radix_passes(c1, n, config.stream_radix_log2)) {
    schedule.rounds.push_back({p.stage + p.radix_log2, {}, {p}});
  }
  return schedule;
}

int sweep_count(const Schedule& schedule) {
  return static_cast<int>(schedule.rounds.size());
}

namespace {

// Strided fused tile kernels: WHT(2^k) on 2^k elements at stride s, the same
// butterflies in the same stage order as the codelets tools/codelet_gen
// emits, fully inlined so a pass is one flat loop.

inline void radix2_tile(double* x, std::ptrdiff_t s) {
  const double a = x[0];
  const double b = x[s];
  x[0] = a + b;
  x[s] = a - b;
}

inline void radix4_tile(double* x, std::ptrdiff_t s) {
  const double a0 = x[0], a1 = x[s], a2 = x[2 * s], a3 = x[3 * s];
  const double b0 = a0 + a1, b1 = a0 - a1, b2 = a2 + a3, b3 = a2 - a3;
  x[0] = b0 + b2;
  x[s] = b1 + b3;
  x[2 * s] = b0 - b2;
  x[3 * s] = b1 - b3;
}

inline void radix8_tile(double* x, std::ptrdiff_t s) {
  double t[8];
  for (int i = 0; i < 8; ++i) t[i] = x[i * s];
  for (int half = 1; half < 8; half *= 2) {
    for (int base = 0; base < 8; base += 2 * half) {
      for (int off = 0; off < half; ++off) {
        const double a = t[base + off];
        const double b = t[base + off + half];
        t[base + off] = a + b;
        t[base + off + half] = a - b;
      }
    }
  }
  for (int i = 0; i < 8; ++i) x[i * s] = t[i];
}

void run_pass(const SchedulePass& pass, double* x, std::ptrdiff_t stride,
              int block_log2,
              const std::array<CodeletFn, kMaxUnrolled + 1>& table) {
  // The blocker only emits passes satisfying these, but execute_schedule is
  // public and accepts hand-built schedules: reject geometry that would
  // index past the codelet table or read outside the block.
  if (pass.stage < 0 || pass.radix_log2 < 1 ||
      pass.radix_log2 > kMaxUnrolled ||
      pass.stage + pass.radix_log2 > block_log2) {
    throw std::invalid_argument(
        "execute_schedule: pass (stage " + std::to_string(pass.stage) +
        ", radix_log2 " + std::to_string(pass.radix_log2) +
        ") does not fit its 2^" + std::to_string(block_log2) +
        " block or exceeds radix-2^" + std::to_string(kMaxUnrolled));
  }
  const std::uint64_t block = std::uint64_t{1} << block_log2;
  if (pass.stage == 0) {
    // Unit pass: contiguous runs of 2^k, the unrolled codelet per run.
    const std::uint64_t m = std::uint64_t{1} << pass.radix_log2;
    const CodeletFn fn = table[static_cast<std::size_t>(pass.radix_log2)];
    for (std::uint64_t r = 0; r < block; r += m) {
      fn(x + static_cast<std::ptrdiff_t>(r) * stride, stride);
    }
    return;
  }
  const std::uint64_t s = std::uint64_t{1} << pass.stage;
  const std::uint64_t span = s << pass.radix_log2;
  const std::ptrdiff_t ts = static_cast<std::ptrdiff_t>(s) * stride;
  const auto sweep = [&](auto&& tile) {
    for (std::uint64_t j = 0; j < block; j += span) {
      double* base = x + static_cast<std::ptrdiff_t>(j) * stride;
      for (std::uint64_t t = 0; t < s; ++t) {
        tile(base + static_cast<std::ptrdiff_t>(t) * stride, ts);
      }
    }
  };
  switch (pass.radix_log2) {
    case 1:
      sweep(radix2_tile);
      break;
    case 2:
      sweep(radix4_tile);
      break;
    case 3:
      sweep(radix8_tile);
      break;
    default:
      // The blocker never emits these, but a hand-built schedule may.
      sweep(table[static_cast<std::size_t>(pass.radix_log2)]);
      break;
  }
}

void run_block(const ScheduleRound& round, double* x, std::ptrdiff_t stride,
               const std::array<CodeletFn, kMaxUnrolled + 1>& table) {
  for (const ScheduleRound& inner : round.inner) {
    const std::uint64_t sub = std::uint64_t{1} << inner.block_log2;
    const std::uint64_t count =
        (std::uint64_t{1} << round.block_log2) >> inner.block_log2;
    for (std::uint64_t b = 0; b < count; ++b) {
      run_block(inner, x + static_cast<std::ptrdiff_t>(b * sub) * stride,
                stride, table);
    }
  }
  for (const SchedulePass& pass : round.passes) {
    run_pass(pass, x, stride, round.block_log2, table);
  }
}

}  // namespace

void execute_schedule(const Schedule& schedule, double* x, std::ptrdiff_t stride,
                      const std::array<CodeletFn, kMaxUnrolled + 1>& table) {
  const std::uint64_t n = std::uint64_t{1} << schedule.log2_size;
  for (const ScheduleRound& round : schedule.rounds) {
    const std::uint64_t block = std::uint64_t{1} << round.block_log2;
    const std::uint64_t count = n >> round.block_log2;
    for (std::uint64_t b = 0; b < count; ++b) {
      run_block(round, x + static_cast<std::ptrdiff_t>(b * block) * stride,
                stride, table);
    }
  }
}

void execute_schedule(const Schedule& schedule, double* x) {
  execute_schedule(schedule, x, 1, codelet_table());
}

}  // namespace whtlab::core
