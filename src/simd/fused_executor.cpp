#include "simd/fused_executor.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/codelet.hpp"
#include "simd/kernels.hpp"
#include "util/cpu_relax.hpp"
#include "util/parallel_chunks.hpp"

namespace whtlab::simd {

namespace {

int floor_log2(std::uint64_t v) {
  return static_cast<int>(std::bit_width(v)) - 1;
}

/// True when every pass of every round can run on the W-wide kernels: unit
/// passes need a full vector per run, strided passes a full vector per
/// column group, and radixes must not exceed the kernels' widest unrolled
/// tile.  The blocker's schedules satisfy this for any n >= log2(W) at the
/// default unit size; hand-built configs may not, and then the whole
/// schedule takes the scalar interpreter (per-pass mixing is not worth the
/// complexity — these are degenerate geometries, and the scalar path
/// validates them).
bool vectorizable(const core::ScheduleRound& round, std::uint64_t width) {
  for (const core::ScheduleRound& inner : round.inner) {
    if (inner.block_log2 > round.block_log2) return false;
    if (!vectorizable(inner, width)) return false;
  }
  for (const core::SchedulePass& pass : round.passes) {
    if (pass.stage < 0 || pass.radix_log2 < 1 ||
        pass.radix_log2 > core::kMaxUnrolled ||
        pass.stage + pass.radix_log2 > round.block_log2) {
      return false;  // malformed; the scalar interpreter throws on it
    }
    const std::uint64_t vector_span =
        pass.stage == 0 ? std::uint64_t{1} << pass.radix_log2
                        : std::uint64_t{1} << pass.stage;
    if (vector_span < width) return false;
  }
  return true;
}

bool vectorizable(const core::Schedule& schedule, std::uint64_t width) {
  for (const core::ScheduleRound& round : schedule.rounds) {
    if (!vectorizable(round, width)) return false;
  }
  return true;
}

void run_block(const core::ScheduleRound& round, double* x,
               const KernelSet& kernels) {
  for (const core::ScheduleRound& inner : round.inner) {
    const std::uint64_t sub = std::uint64_t{1} << inner.block_log2;
    const std::uint64_t count =
        (std::uint64_t{1} << round.block_log2) >> inner.block_log2;
    for (std::uint64_t b = 0; b < count; ++b) {
      run_block(inner, x + b * sub, kernels);
    }
  }
  const std::uint64_t block = std::uint64_t{1} << round.block_log2;
  for (const core::SchedulePass& pass : round.passes) {
    if (pass.stage == 0) {
      kernels.fused_unit_pass(pass.radix_log2, x, block >> pass.radix_log2);
    } else {
      kernels.fused_lockstep_pass(pass.radix_log2, pass.stage, x, block,
                                  std::uint64_t{1} << pass.stage);
    }
  }
}

// --- one vector on several threads ------------------------------------------
//
// The top-level rounds run in order, but within a round every block is
// independent, and so is every W-column range of a strided pass.  Each round
// is cut into chunks (about kChunksPerThread per thread) and all chunks, in
// round order, are claimed from one atomic counter by the caller and its
// workers.  A chunk of round r starts only once every chunk of the rounds
// before it is done (`done` counts finished chunks; release on finish,
// acquire on wait), so each element still sees its stages in ascending
// order and the result stays bit-identical.  Claiming rather than fixed
// shares is what keeps late threads cheap: a worker that starts a
// millisecond after the spawn (or shares a core) gives up its share
// instead of holding up a barrier.  util::Workers starts each worker off
// the caller's CPU, where it can run alongside the caller at once.

constexpr std::uint64_t kChunksPerThread = 4;

/// How one top-level round is cut: `chunks` chunks, the first with global
/// index `first`.  parts == 1 means each chunk is a range of whole blocks;
/// parts > 1 means the round is a single strided pass and each of its
/// blocks is cut into `parts` W-aligned column ranges.
struct RoundSplit {
  std::uint64_t first = 0;
  std::uint64_t chunks = 0;
  std::uint64_t parts = 1;
};

RoundSplit split_round(const core::ScheduleRound& round, std::uint64_t n,
                       std::uint64_t target, std::uint64_t width) {
  const std::uint64_t blocks = n >> round.block_log2;
  RoundSplit split;
  split.chunks = std::min(blocks, target);
  const bool one_strided_pass = round.inner.empty() &&
                                round.passes.size() == 1 &&
                                round.passes.front().stage > 0;
  if (blocks < target && one_strided_pass) {
    const std::uint64_t groups =
        (std::uint64_t{1} << round.passes.front().stage) / width;
    split.parts = std::min(groups, (target + blocks - 1) / blocks);
    split.chunks = blocks * split.parts;
  }
  return split;
}

void run_chunk(const core::ScheduleRound& round, const RoundSplit& split,
               std::uint64_t chunk, double* x, std::uint64_t n,
               const KernelSet& kernels) {
  const std::uint64_t block = std::uint64_t{1} << round.block_log2;
  if (split.parts == 1) {
    const std::uint64_t blocks = n >> round.block_log2;
    const std::uint64_t end = blocks * (chunk + 1) / split.chunks;
    for (std::uint64_t b = blocks * chunk / split.chunks; b < end; ++b) {
      run_block(round, x + b * block, kernels);
    }
    return;
  }
  const core::SchedulePass& pass = round.passes.front();
  const std::uint64_t width = static_cast<std::uint64_t>(kernels.width);
  const std::uint64_t groups = (std::uint64_t{1} << pass.stage) / width;
  const std::uint64_t part = chunk % split.parts;
  const std::uint64_t begin = groups * part / split.parts;
  const std::uint64_t end = groups * (part + 1) / split.parts;
  kernels.fused_lockstep_pass(pass.radix_log2, pass.stage,
                              x + (chunk / split.parts) * block + begin * width,
                              block, (end - begin) * width);
}

/// Waits until `done` reaches `target`: a short pause loop, then yields.
void wait_for(const std::atomic<std::uint64_t>& done, std::uint64_t target) {
  constexpr int kSpins = 256;
  for (int spin = 0; done.load(std::memory_order_acquire) < target; ++spin) {
    if (spin < kSpins) {
      util::cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

void run_split(const core::Schedule& schedule, double* x,
               const KernelSet& kernels, int threads) {
  const std::uint64_t n = std::uint64_t{1} << schedule.log2_size;
  const std::uint64_t target =
      kChunksPerThread * static_cast<std::uint64_t>(threads);
  std::vector<RoundSplit> splits;
  splits.reserve(schedule.rounds.size());
  std::uint64_t total = 0;
  for (const core::ScheduleRound& round : schedule.rounds) {
    splits.push_back(split_round(round, n, target,
                                 static_cast<std::uint64_t>(kernels.width)));
    splits.back().first = total;
    total += splits.back().chunks;
  }

  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> done{0};
  const auto work = [&](std::uint64_t /*worker*/) {
    std::size_t r = 0;
    for (;;) {
      const std::uint64_t chunk = next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= total) return;
      while (chunk >= splits[r].first + splits[r].chunks) ++r;
      wait_for(done, splits[r].first);
      run_chunk(schedule.rounds[r], splits[r], chunk - splits[r].first, x, n,
                kernels);
      done.fetch_add(1, std::memory_order_release);
    }
  };
  // A worker that failed to start leaves its chunks to the others; the
  // caller claims chunks too, so every chunk runs.
  util::Workers workers;
  workers.spawn(static_cast<std::uint64_t>(threads) - 1, work);
  work(0);
  workers.join();
}

}  // namespace

core::BlockingConfig detect_blocking() {
  core::BlockingConfig config;
  const CacheSizes& caches = cache_sizes();
  // Blocks target half of each cache level: the other half absorbs the
  // strided pass tiles above the block and whatever else the process keeps
  // warm.  Unknown levels keep the generic defaults.
  if (caches.l1d_bytes > 0) {
    config.l1_block_log2 = floor_log2(caches.l1d_bytes / (2 * sizeof(double)));
  }
  if (caches.l2_bytes > 0) {
    config.l2_block_log2 = floor_log2(caches.l2_bytes / (2 * sizeof(double)));
  }
  config.l1_block_log2 = std::max(config.l1_block_log2, config.unit_log2);
  config.l2_block_log2 = std::max(config.l2_block_log2, config.l1_block_log2);
  return config;
}

void execute_fused(const core::Schedule& schedule, double* x,
                   std::ptrdiff_t stride, SimdLevel level, int threads) {
  const auto& table = core::codelet_table();
  const KernelSet* kernels = kernels_for(level);
  if (kernels == nullptr || stride != 1 ||
      !vectorizable(schedule, static_cast<std::uint64_t>(kernels->width))) {
    core::execute_schedule(schedule, x, stride, table);
    return;
  }
  if (threads > 1 && schedule.rounds.size() >= 2) {
    run_split(schedule, x, *kernels, threads);
    return;
  }
  const std::uint64_t n = std::uint64_t{1} << schedule.log2_size;
  for (const core::ScheduleRound& round : schedule.rounds) {
    const std::uint64_t block = std::uint64_t{1} << round.block_log2;
    for (std::uint64_t b = 0; b < n >> round.block_log2; ++b) {
      run_block(round, x + b * block, *kernels);
    }
  }
}

void execute_fused(const core::Schedule& schedule, double* x,
                   std::ptrdiff_t stride) {
  execute_fused(schedule, x, stride, active_level());
}

void execute_fused_many(const core::Schedule& schedule, double* x,
                        std::size_t count, std::ptrdiff_t dist, int threads) {
  const SimdLevel level = active_level();
  util::parallel_chunks(
      count, threads, [&](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t v = begin; v < end; ++v) {
          execute_fused(schedule, x + static_cast<std::ptrdiff_t>(v) * dist, 1,
                        level);
        }
      });
}

}  // namespace whtlab::simd
