// The fork-join sites' thread handling (util::Workers).
//
// A thread that fails to start must cost parallelism, never the process.
// std::thread throws std::system_error at the process's thread limit; the
// "thread.spawn" fault point raises the same error on demand.  Every
// fork-join site — the fused single-vector split, the batch fan-out of
// util::parallel_chunks, and the "parallel" backend's per-factor fork —
// must then run the unstarted shares on the caller, join the workers that
// did start, and stay bit-exact.  "always" fails every start; "nth:2" lets
// the first start through and fails the second, so started and unstarted
// workers mix.  An exception a worker's share throws must reach the caller
// the same way.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "api/wht.hpp"
#include "core/executor.hpp"
#include "core/schedule.hpp"
#include "simd/cpu_features.hpp"
#include "simd/fused_executor.hpp"
#include "simd/kernels.hpp"
#include "util/aligned_buffer.hpp"
#include "util/fault.hpp"
#include "util/parallel_chunks.hpp"
#include "util/rng.hpp"

namespace whtlab {
namespace {

class ThreadSpawnFault : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { util::fault::disarm(); }
  void TearDown() override { util::fault::disarm(); }

  /// Re-arms the trigger so each site sees its own first and second start.
  void arm() const { util::fault::arm("thread.spawn=" + GetParam()); }
};

TEST_P(ThreadSpawnFault, FusedSplitRunsUnstartedSharesOnTheCaller) {
  if (simd::kernels_for(simd::active_level()) == nullptr) {
    GTEST_SKIP() << "scalar level: the fused single never splits";
  }
  const int n = 12;
  const core::Schedule schedule = core::lower_size(n, {3, 2, 5, 8, 2});
  ASSERT_GE(core::sweep_count(schedule), 2);
  const std::vector<double> input =
      util::random_vector(std::uint64_t{1} << n, 5);
  std::vector<double> expect = input;
  core::execute(core::Plan::right_recursive(n), expect.data());

  arm();
  util::AlignedBuffer x(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) x[i] = input[i];
  simd::execute_fused(schedule, x.data(), 1, simd::active_level(), 3);
  EXPECT_GT(util::fault::fired("thread.spawn"), 0u);
  for (std::size_t i = 0; i < input.size(); ++i) {
    ASSERT_EQ(x[i], expect[i]) << "i=" << i;
  }
}

TEST_P(ThreadSpawnFault, FusedBatchRunsUnstartedChunksOnTheCaller) {
  const int n = 10;
  const core::Plan plan = core::Plan::right_recursive(n);
  const core::Schedule schedule =
      core::lower_size(plan.log2_size(), simd::detect_blocking());
  const std::size_t count = 6;
  const std::uint64_t size = plan.size();
  const std::vector<double> input = util::random_vector(count * size, 6);
  std::vector<double> expect = input;
  for (std::size_t v = 0; v < count; ++v) {
    core::execute(plan, expect.data() + v * size);
  }

  arm();
  util::AlignedBuffer batch(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) batch[i] = input[i];
  simd::execute_fused_many(schedule, batch.data(), count,
                           static_cast<std::ptrdiff_t>(size), 3);
  EXPECT_GT(util::fault::fired("thread.spawn"), 0u);
  for (std::size_t i = 0; i < input.size(); ++i) {
    ASSERT_EQ(batch[i], expect[i]) << "i=" << i;
  }
}

TEST_P(ThreadSpawnFault, ParallelTransformRunsUnstartedTasksOnTheCaller) {
  const api::Transform parallel =
      api::Planner().backend("parallel").threads(3).plan(14);
  const api::Transform generated =
      api::Planner().fixed(parallel.plan()).plan();
  const std::vector<double> input = util::random_vector(parallel.size(), 7);
  std::vector<double> expect = input;
  generated.execute(expect.data());

  arm();
  std::vector<double> x = input;
  parallel.execute(x.data());
  EXPECT_GT(util::fault::fired("thread.spawn"), 0u);
  EXPECT_EQ(x, expect);
}

TEST(ForkJoin, WorkerExceptionReachesTheCaller) {
  // Chunk 0 runs on the caller; chunk 3 on the last worker.
  EXPECT_THROW(util::parallel_chunks(4, 4,
                                     [](std::uint64_t begin, std::uint64_t) {
                                       if (begin == 3) {
                                         throw std::runtime_error("chunk 3");
                                       }
                                     }),
               std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Triggers, ThreadSpawnFault,
                         ::testing::Values("always", "nth:2"),
                         [](const auto& info) {
                           return info.param == "always" ? std::string("Always")
                                                         : std::string("Nth2");
                         });

}  // namespace
}  // namespace whtlab
