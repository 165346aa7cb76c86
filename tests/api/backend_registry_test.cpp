// BackendRegistry: built-in lookup, unknown-name errors, custom registration,
// and numerical agreement of every built-in backend with core::execute.
#include "api/executor_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/plan.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace whtlab::api {
namespace {

/// The registry as the library builds it, read before main(): tests
/// register their own backends into the same process-wide registry while
/// they run.
const std::vector<std::string> kNamesAtStartup =
    BackendRegistry::global().names();

TEST(BackendRegistry, BuiltinsAreExactlyTheServedBackends) {
  // Every built-in is a backend wht::Engine can route to; nothing else.
  EXPECT_EQ(kNamesAtStartup, (std::vector<std::string>{"fused", "generated",
                                                       "parallel", "simd"}));
}

TEST(BackendRegistry, BuiltinsAreRegistered) {
  auto& registry = BackendRegistry::global();
  for (const char* name : {"generated", "parallel", "simd", "fused"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    const auto backend = registry.create(name);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(backend->name(), name);
  }
}

TEST(BackendRegistry, NamesAreSortedAndContainBuiltins) {
  const auto names = BackendRegistry::global().names();
  ASSERT_GE(names.size(), 4u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(BackendRegistry, UnknownNameThrowsListingKnownNames) {
  try {
    BackendRegistry::global().create("definitely-not-a-backend");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("definitely-not-a-backend"), std::string::npos);
    EXPECT_NE(message.find("generated"), std::string::npos);
    EXPECT_NE(message.find("parallel"), std::string::npos);
  }
}

TEST(BackendRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(BackendRegistry::global().register_factory(
                   "generated",
                   [](const BackendOptions&) {
                     return BackendRegistry::global().create("simd");
                   }),
               std::invalid_argument);
}

TEST(BackendRegistry, CustomBackendIsCreatable) {
  // A future SIMD/GPU backend drops in exactly like this.
  class NegatingBackend final : public ExecutorBackend {
   public:
    const std::string& name() const override { return name_; }
    void run(const core::Plan& plan, double* x, std::ptrdiff_t stride,
             ExecContext& /*ctx*/) const override {
      core::execute_node(plan.root(), x, stride, core::codelet_table());
      for (std::uint64_t i = 0; i < plan.size(); ++i) {
        x[static_cast<std::ptrdiff_t>(i) * stride] *= -1.0;
      }
    }

   private:
    std::string name_ = "negating-test";
  };

  auto& registry = BackendRegistry::global();
  if (!registry.contains("negating-test")) {
    registry.register_factory("negating-test", [](const BackendOptions&) {
      return std::make_unique<NegatingBackend>();
    });
  }
  const auto backend = registry.create("negating-test");
  const core::Plan plan = core::Plan::iterative(4);
  util::AlignedBuffer x(plan.size());
  util::AlignedBuffer reference(plan.size());
  util::Rng rng(11);
  for (std::uint64_t i = 0; i < plan.size(); ++i) {
    x[i] = reference[i] = rng.uniform(-1, 1);
  }
  backend->run(plan, x.data(), 1);
  core::execute(plan, reference.data());
  for (std::uint64_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(x[i], -reference[i]) << i;
  }
}

class BuiltinBackendTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BuiltinBackendTest, MatchesCoreExecute) {
  BackendOptions options;
  options.threads = 2;
  const auto backend = BackendRegistry::global().create(GetParam(), options);
  const core::Plan plan = core::Plan::balanced_binary(12, 4);
  util::AlignedBuffer x(plan.size());
  util::AlignedBuffer reference(plan.size());
  util::Rng rng(5);
  for (std::uint64_t i = 0; i < plan.size(); ++i) {
    x[i] = reference[i] = rng.uniform(-1, 1);
  }
  backend->run(plan, x.data(), 1);
  core::execute(plan, reference.data());
  for (std::uint64_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(x[i], reference[i]) << GetParam() << " at " << i;
  }
}

TEST_P(BuiltinBackendTest, StridedRunMatchesGather) {
  const auto backend = BackendRegistry::global().create(GetParam());
  const core::Plan plan = core::Plan::balanced_binary(8, 3);
  const std::uint64_t n = plan.size();
  constexpr std::ptrdiff_t kStride = 3;
  util::AlignedBuffer strided(n * kStride);
  util::AlignedBuffer dense(n);
  util::Rng rng(17);
  strided.fill(-7.0);  // sentinels between the strided elements
  for (std::uint64_t i = 0; i < n; ++i) {
    const double v = rng.uniform(-1, 1);
    strided[i * kStride] = v;
    dense[i] = v;
  }
  backend->run(plan, strided.data(), kStride);
  core::execute(plan, dense.data());
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(strided[i * kStride], dense[i]) << GetParam() << " at " << i;
  }
  // Elements between the strided slots are untouched.
  for (std::uint64_t i = 0; i + 1 < n; ++i) {
    for (std::ptrdiff_t off = 1; off < kStride; ++off) {
      EXPECT_EQ(strided[i * kStride + static_cast<std::uint64_t>(off)], -7.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBuiltins, BuiltinBackendTest,
                         ::testing::Values("generated", "parallel", "simd",
                                           "fused"));

TEST(BackendRunMany, DefaultLoopAndOverridesAgree) {
  // Every built-in's batch path must equal per-vector runs of "generated" —
  // including the overriding backends ("simd" interleaved, "parallel" and
  // "fused" across-vector fork-join).
  const core::Plan plan = core::Plan::balanced_binary(10, 4);
  const std::size_t count = 6;
  const std::ptrdiff_t dist = static_cast<std::ptrdiff_t>(plan.size()) + 3;
  std::vector<double> master(count * static_cast<std::size_t>(dist));
  util::Rng rng(31);
  for (auto& v : master) v = rng.uniform(-1, 1);

  std::vector<double> reference = master;
  for (std::size_t v = 0; v < count; ++v) {
    core::execute(plan, reference.data() + v * static_cast<std::size_t>(dist));
  }

  BackendOptions options;
  options.threads = 3;
  for (const char* name : {"generated", "parallel", "simd", "fused"}) {
    auto backend = BackendRegistry::global().create(name, options);
    std::vector<double> batch = master;
    backend->run_many(plan, batch.data(), count, dist);
    EXPECT_EQ(batch, reference) << name;
  }
}

TEST(ParallelBackend, StridedForkJoinMatchesDense) {
  // Large enough (>= 2^12) and threaded, so the fork-join branches of
  // execute_parallel_strided run — not the sequential early-return.
  BackendOptions options;
  options.threads = 3;
  const auto backend = BackendRegistry::global().create("parallel", options);
  const core::Plan plan = core::Plan::balanced_binary(13, 5);
  const std::uint64_t n = plan.size();
  constexpr std::ptrdiff_t kStride = 2;
  util::AlignedBuffer strided(n * kStride);
  util::AlignedBuffer dense(n);
  util::Rng rng(23);
  strided.fill(-3.0);
  for (std::uint64_t i = 0; i < n; ++i) {
    const double v = rng.uniform(-1, 1);
    strided[i * kStride] = v;
    dense[i] = v;
  }
  backend->run(plan, strided.data(), kStride);
  core::execute(plan, dense.data());
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(strided[i * kStride], dense[i]) << i;
  }
  for (std::uint64_t i = 0; i + 1 < n; ++i) {
    ASSERT_EQ(strided[i * kStride + 1], -3.0) << i;  // gaps untouched
  }
}

}  // namespace
}  // namespace whtlab::api
