#include "simd/simd_executor.hpp"

#include <cstdint>

#include "core/codelet.hpp"
#include "core/executor.hpp"
#include "simd/kernels.hpp"
#include "util/aligned_buffer.hpp"
#include "util/parallel_chunks.hpp"

namespace whtlab::simd {

namespace {

/// Interleaved execute_many caps its scratch at this many doubles (4 KiB —
/// a fraction of L1).  Interleaving wins exactly where per-transform
/// overhead dominates (tiny transforms, the high-rate serving shape);
/// beyond this the W-fold working-set blowup spills L1 and the per-vector
/// tree walk — itself vectorized — is faster (measured crossover ~2^6 at
/// width 8; see bench_simd_compare).
constexpr std::uint64_t kInterleaveMaxDoubles = 512;

/// Per dispatch level (indexed by SimdLevel), the largest whole-vector leaf
/// (log2) that execute() runs on the scalar generated codelet.  On AVX2 and
/// AVX-512 the codelet beats the walk and leaf_unit up to small[4] (about
/// 16 ns against 30 ns at n = 4) and no longer wins from small[5] on
/// (README's n = 1-6 cells); the scalar level runs every leaf on its
/// codelet anyway.
constexpr int kScalarLeafMax[] = {core::kMaxUnrolled, 4, 4};
static_assert(sizeof(kScalarLeafMax) / sizeof(kScalarLeafMax[0]) ==
              static_cast<std::size_t>(SimdLevel::kAvx512) + 1);

struct WalkContext {
  const KernelSet* kernels;  // never null inside the vectorized walk
  const std::array<core::CodeletFn, core::kMaxUnrolled + 1>* scalar;
  bool use_gather = false;  // leaf_strided available on this ISA
};

/// W transforms in lockstep: lane l's element j of `node`'s vector lives at
/// x[l + j*estride].  Split nodes are the scalar triple loop with element
/// stride `estride`; only leaves touch data, W-wide.
void walk_lockstep(const core::PlanNode& node, double* x, std::ptrdiff_t estride,
                   const WalkContext& ctx) {
  if (node.kind == core::NodeKind::kSmall) {
    ctx.kernels->leaf_lockstep(node.log2_size, x, estride);
    return;
  }
  std::uint64_t r = node.size();
  std::uint64_t s = 1;
  for (std::size_t i = node.children.size(); i-- > 0;) {
    const core::PlanNode& child = *node.children[i];
    const std::uint64_t ni = child.size();
    r /= ni;
    for (std::uint64_t j = 0; j < r; ++j) {
      for (std::uint64_t k = 0; k < s; ++k) {
        walk_lockstep(child,
                      x + static_cast<std::ptrdiff_t>(j * ni * s + k) * estride,
                      static_cast<std::ptrdiff_t>(s) * estride, ctx);
      }
    }
    s *= ni;
  }
}

/// Vectorized mirror of core::execute_node.  At unit stride the inner k
/// loop switches to lockstep W at a time as soon as S >= W (the W child
/// vectors it covers start at consecutive addresses); stride-1 leaves of at
/// least W elements take the in-register codelet; everything else is the
/// scalar path.
void walk(const core::PlanNode& node, double* x, std::ptrdiff_t stride,
          const WalkContext& ctx) {
  const std::uint64_t width = static_cast<std::uint64_t>(ctx.kernels->width);
  if (node.kind == core::NodeKind::kSmall) {
    if (stride == 1 && node.size() >= width) {
      ctx.kernels->leaf_unit(node.log2_size, x);
    } else if (ctx.use_gather && stride > 1 && node.size() >= width) {
      // Strided leaf on the gather/scatter path: 8 strided elements per
      // zmm, the whole butterfly body in registers (AVX-512 only; scalar
      // elsewhere).
      ctx.kernels->leaf_strided(node.log2_size, x, stride);
    } else {
      (*ctx.scalar)[static_cast<std::size_t>(node.log2_size)](x, stride);
    }
    return;
  }
  std::uint64_t r = node.size();
  std::uint64_t s = 1;
  for (std::size_t i = node.children.size(); i-- > 0;) {
    const core::PlanNode& child = *node.children[i];
    const std::uint64_t ni = child.size();
    r /= ni;
    for (std::uint64_t j = 0; j < r; ++j) {
      double* block = x + static_cast<std::ptrdiff_t>(j * ni * s) * stride;
      if (stride == 1 && s >= width) {
        for (std::uint64_t k = 0; k < s; k += width) {
          walk_lockstep(child, block + static_cast<std::ptrdiff_t>(k),
                        static_cast<std::ptrdiff_t>(s), ctx);
        }
      } else {
        for (std::uint64_t k = 0; k < s; ++k) {
          walk(child, block + static_cast<std::ptrdiff_t>(k) * stride,
               static_cast<std::ptrdiff_t>(s) * stride, ctx);
        }
      }
    }
    s *= ni;
  }
}

}  // namespace

const KernelSet* kernels_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return nullptr;
#if defined(WHTLAB_HAVE_AVX2)
    case SimdLevel::kAvx2:
      return &avx2_kernels();
#endif
#if defined(WHTLAB_HAVE_AVX512)
    case SimdLevel::kAvx512:
      return &avx512_kernels();
#endif
    default:
      return nullptr;  // level compiled out of this binary
  }
}

void execute(const core::Plan& plan, double* x, std::ptrdiff_t stride,
             SimdLevel level) {
  const auto& scalar = core::codelet_table();
  const core::PlanNode& root = plan.root();
  if (root.kind == core::NodeKind::kSmall &&
      root.log2_size <= kScalarLeafMax[static_cast<std::size_t>(level)]) {
    // The whole vector is one leaf at or below the crossover: the generated
    // codelet itself, with no kernel lookup and no walk, so it is
    // bit-identical by construction.
    scalar[static_cast<std::size_t>(root.log2_size)](x, stride);
    return;
  }
  const KernelSet* kernels = kernels_for(level);
  if (kernels == nullptr) {
    core::execute_node(root, x, stride, scalar);
    return;
  }
  WalkContext ctx{kernels, &scalar};
  ctx.use_gather = kernels->leaf_strided != nullptr;
  walk(root, x, stride, ctx);
}

void execute(const core::Plan& plan, double* x, std::ptrdiff_t stride) {
  execute(plan, x, stride, active_level());
}

namespace {

/// THE interleave rule — execute_many's dispatch and the arbiter-facing
/// batch_interleaves() predicate must never diverge, so both call this.
bool interleaves(const KernelSet* kernels, std::uint64_t size,
                 std::size_t count) {
  if (kernels == nullptr) return false;
  const std::uint64_t width = static_cast<std::uint64_t>(kernels->width);
  return count >= width && size * width <= kInterleaveMaxDoubles;
}

}  // namespace

bool batch_interleaves(const core::Plan& plan, std::size_t count) {
  return interleaves(kernels_for(active_level()), plan.size(), count);
}

void execute_many(const core::Plan& plan, double* x, std::size_t count,
                  std::ptrdiff_t dist, int threads,
                  util::ScratchArena* scratch) {
  const SimdLevel level = active_level();
  const KernelSet* kernels = kernels_for(level);
  const std::uint64_t n = plan.size();
  const std::uint64_t width =
      kernels ? static_cast<std::uint64_t>(kernels->width) : 1;

  if (!interleaves(kernels, n, count)) {
    util::parallel_chunks(count, threads, [&](std::uint64_t begin, std::uint64_t end) {
      for (std::uint64_t v = begin; v < end; ++v) {
        execute(plan, x + static_cast<std::ptrdiff_t>(v) * dist, 1, level);
      }
    });
    return;
  }

  const auto& scalar = core::codelet_table();
  const WalkContext ctx{kernels, &scalar};
  const std::uint64_t groups = static_cast<std::uint64_t>(count) / width;
  const core::PlanNode& root = plan.root();

  // The caller's arena is usable only when the sweep runs on the calling
  // thread (workers spawned on fresh threads must not share it — an arena
  // belongs to one thread); ask parallel_chunks' own rule.
  const bool inline_call = util::parallel_chunks_runs_inline(groups, threads);
  util::parallel_chunks(groups, threads, [&](std::uint64_t begin, std::uint64_t end) {
    if (begin == end) return;
    util::AlignedBuffer local;
    double* buffer;
    if (inline_call && scratch != nullptr) {
      buffer = scratch->acquire(n * width);
    } else {
      local = util::AlignedBuffer(n * width);
      buffer = local.data();
    }
    const std::ptrdiff_t w = static_cast<std::ptrdiff_t>(width);
    for (std::uint64_t g = begin; g < end; ++g) {
      double* base = x + static_cast<std::ptrdiff_t>(g * width) * dist;
      kernels->interleave_in(buffer, base, dist, n);
      walk_lockstep(root, buffer, w, ctx);
      kernels->interleave_out(base, buffer, dist, n);
    }
  });

  // Remainder vectors (< width of them) one at a time.
  for (std::uint64_t v = groups * width; v < count; ++v) {
    execute(plan, x + static_cast<std::ptrdiff_t>(v) * dist, 1, level);
  }
}

}  // namespace whtlab::simd
