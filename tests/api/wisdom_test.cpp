// Wisdom plan cache: file round-trip through the plan grammar, and the
// Planner short-circuit — a second planner process pays zero search cost
// for a tuple the first one already tuned.
#include "api/wisdom.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/wht.hpp"
#include "core/plan.hpp"
#include "core/plan_io.hpp"
#include "simd/cpu_features.hpp"

namespace whtlab::api {
namespace {

/// Unique temp path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Wisdom, RoundTripsEntriesThroughTheGrammar) {
  const TempFile file("wisdom_roundtrip.txt");
  Wisdom wisdom;
  const Wisdom::Key small{"avx512", 4, "measure", "simd"};
  const Wisdom::Key big{"scalar", 16, "estimate", "fused"};
  wisdom.insert(small, core::Plan::balanced_binary(4, 2));
  wisdom.insert(big, core::Plan::iterative_radix(16, 8));
  wisdom.save(file.path());

  const Wisdom loaded = Wisdom::load(file.path());
  EXPECT_EQ(loaded.size(), 2u);
  ASSERT_NE(loaded.lookup(small), nullptr);
  ASSERT_NE(loaded.lookup(big), nullptr);
  EXPECT_EQ(*loaded.lookup(small), core::Plan::balanced_binary(4, 2));
  EXPECT_EQ(*loaded.lookup(big), core::Plan::iterative_radix(16, 8));
  EXPECT_EQ(loaded.lookup(Wisdom::Key{"avx512", 5, "measure", "simd"}),
            nullptr);
}

TEST(Wisdom, MissingFileIsEmptyAndMalformedThrows) {
  EXPECT_EQ(Wisdom::load("/nonexistent/wisdom.txt").size(), 0u);

  const TempFile file("wisdom_malformed.txt");
  std::ofstream out(file.path());
  out << "# comment survives\n" << "avx2\tnot-enough-fields\n";
  out.close();
  EXPECT_THROW(Wisdom::load(file.path()), std::invalid_argument);

  // Earlier builds wrote an `@prop` line beside the plans; it is skipped,
  // and the plan still loads.
  const TempFile legacy("wisdom_legacy_prop.txt");
  std::ofstream old(legacy.path());
  old << "# whtlab wisdom v1\n"
      << "@prop\tcalibration/avx512/fused\t1 0.25 1 8\n"
      << "avx512\t6\testimate\tfused\tsplit[small[3],small[3]]\n";
  old.close();
  const Wisdom loaded = Wisdom::load(legacy.path());
  EXPECT_EQ(loaded.size(), 1u);
  ASSERT_NE(loaded.lookup(Wisdom::Key{"avx512", 6, "estimate", "fused"}),
            nullptr);
}

TEST(Wisdom, SizeMismatchedEntryThrows) {
  // A row whose grammar computes a different size than its n column is
  // corruption; using it would hand callers a wrong-size Transform.
  const TempFile file("wisdom_mismatch.txt");
  std::ofstream out(file.path());
  out << "avx512\t16\tmeasure\tsimd\tsplit[small[4],small[4]]\n";  // 2^8 plan
  out.close();
  EXPECT_THROW(Wisdom::load(file.path()), std::invalid_argument);
}

TEST(Wisdom, DuplicateKeyLinesLastWins) {
  // Appending a re-tuned line supersedes the older one, matching insert().
  const TempFile file("wisdom_dup.txt");
  std::ofstream out(file.path());
  out << "avx512\t6\tmeasure\tsimd\t" << "split[small[3],small[3]]" << "\n"
      << "avx512\t6\tmeasure\tsimd\t" << "split[small[2],small[4]]" << "\n";
  out.close();
  const Wisdom loaded = Wisdom::load(file.path());
  EXPECT_EQ(loaded.size(), 1u);
  const Wisdom::Key key{"avx512", 6, "measure", "simd"};
  ASSERT_NE(loaded.lookup(key), nullptr);
  EXPECT_EQ(*loaded.lookup(key),
            core::parse_plan("split[small[2],small[4]]"));
}

TEST(Wisdom, InsertReplacesExistingEntry) {
  Wisdom wisdom;
  const Wisdom::Key key{"avx2", 6, "anneal", "generated"};
  wisdom.insert(key, core::Plan::iterative(6));
  wisdom.insert(key, core::Plan::right_recursive(6));
  EXPECT_EQ(wisdom.size(), 1u);
  EXPECT_EQ(*wisdom.lookup(key), core::Plan::right_recursive(6));
}

TEST(PlannerWisdom, SecondPlanComesFromTheCache) {
  const TempFile file("wisdom_planner.txt");

  auto first = Planner().wisdom_file(file.path()).plan(10);
  EXPECT_FALSE(first.planning().from_wisdom);
  EXPECT_GT(first.planning().evaluations, 0u);

  auto second = Planner().wisdom_file(file.path()).plan(10);
  EXPECT_TRUE(second.planning().from_wisdom);
  EXPECT_EQ(second.planning().evaluations, 0u);
  EXPECT_EQ(second.plan(), first.plan());

  // A different tuple (another backend) misses and appends.
  auto other = Planner().wisdom_file(file.path()).backend("simd").plan(10);
  EXPECT_FALSE(other.planning().from_wisdom);
  EXPECT_EQ(Wisdom::load(file.path()).size(), 2u);

  // The file key is the dispatched cpu level.
  const Wisdom loaded = Wisdom::load(file.path());
  const Wisdom::Key key{simd::to_string(simd::active_level()), 10, "estimate",
                        "generated"};
  ASSERT_NE(loaded.lookup(key), nullptr);
  EXPECT_EQ(*loaded.lookup(key), first.plan());
}

TEST(PlannerWisdom, RowsOfRetiredStrategiesLoadAndSurviveAnInsert) {
  // Older builds also planned with "anneal" and "exhaustive" and recorded
  // their winners.  Such a file still loads; no planner looks those rows
  // up, and a planner's insert merges them through to the saved file.
  const TempFile file("wisdom_retired.txt");
  const std::string cpu = simd::to_string(simd::active_level());
  std::ofstream old(file.path());
  old << "# whtlab wisdom v1\n"
      << cpu << "\t10\tanneal\tgenerated\tsplit[small[5],small[5]]\n"
      << cpu << "\t6\texhaustive\tsimd\tsplit[small[3],small[3]]\n";
  old.close();
  const Wisdom::Key anneal{cpu, 10, "anneal", "generated"};
  const Wisdom::Key exhaustive{cpu, 6, "exhaustive", "simd"};
  EXPECT_EQ(Wisdom::load(file.path()).size(), 2u);

  auto t = Planner().wisdom_file(file.path()).plan(10);
  EXPECT_EQ(t.planning().strategy, Strategy::kEstimate);
  EXPECT_FALSE(t.planning().from_wisdom);
  EXPECT_GT(t.planning().evaluations, 0u);

  const Wisdom saved = Wisdom::load(file.path());
  EXPECT_EQ(saved.size(), 3u);
  ASSERT_NE(saved.lookup(anneal), nullptr);
  EXPECT_EQ(*saved.lookup(anneal),
            core::parse_plan("split[small[5],small[5]]"));
  ASSERT_NE(saved.lookup(exhaustive), nullptr);
  EXPECT_EQ(*saved.lookup(exhaustive),
            core::parse_plan("split[small[3],small[3]]"));
  ASSERT_NE(saved.lookup(Wisdom::Key{cpu, 10, "estimate", "generated"}),
            nullptr);
  EXPECT_EQ(*saved.lookup(Wisdom::Key{cpu, 10, "estimate", "generated"}),
            t.plan());
}

TEST(Wisdom, SaveIsAtomicReplacement) {
  // save() must go through a temp file + rename: after it returns there is
  // no temp residue, and an existing file was replaced whole (a reader can
  // never observe the header without the entries).
  const TempFile file("wisdom_atomic.txt");
  Wisdom first;
  first.insert(Wisdom::Key{"scalar", 5, "estimate", "generated"},
               core::Plan::iterative(5));
  first.save(file.path());
  Wisdom second;
  second.insert(Wisdom::Key{"scalar", 6, "estimate", "generated"},
                core::Plan::iterative(6));
  second.save(file.path());

  const Wisdom loaded = Wisdom::load(file.path());
  EXPECT_EQ(loaded.size(), 1u);  // replaced, not appended
  std::ifstream temp(file.path() + ".tmp." + std::to_string(::getpid()));
  EXPECT_FALSE(temp.good()) << "temp file left behind";
}

TEST(WisdomRegistry, ConcurrentWritersLoseNothing) {
  // The failure mode this closes: two planners load the same file, each
  // inserts its own winner, each rewrites the whole file — last writer
  // silently drops the other's entry.  Through the registry every insert
  // re-merges the shared state under one lock, so all winners survive any
  // interleaving.
  const TempFile file("wisdom_concurrent.txt");
  WisdomRegistry::global().invalidate(file.path());
  constexpr int kWriters = 8;
  constexpr int kEntriesPerWriter = 4;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&file, w]() {
      for (int i = 0; i < kEntriesPerWriter; ++i) {
        const int n = 4 + (w * kEntriesPerWriter + i) % 12;
        WisdomRegistry::global().insert(
            file.path(),
            Wisdom::Key{"avx512", n, "measure",
                        "writer" + std::to_string(w) + "_" + std::to_string(i)},
            core::Plan::iterative(n));
      }
    });
  }
  for (auto& thread : writers) thread.join();

  const Wisdom loaded = Wisdom::load(file.path());
  EXPECT_EQ(loaded.size(),
            static_cast<std::size_t>(kWriters * kEntriesPerWriter));
}

TEST(WisdomRegistry, ConcurrentPlannersShareOneFile) {
  // End to end through the Planner: concurrent plan() calls against one
  // wisdom file must each persist their tuple.
  const TempFile file("wisdom_planner_concurrent.txt");
  WisdomRegistry::global().invalidate(file.path());
  const std::vector<int> sizes{6, 7, 8, 9};
  std::vector<std::thread> planners;
  for (const int n : sizes) {
    planners.emplace_back([&file, n]() {
      Planner().wisdom_file(file.path()).plan(n);
    });
  }
  for (auto& thread : planners) thread.join();

  const Wisdom loaded = Wisdom::load(file.path());
  EXPECT_EQ(loaded.size(), sizes.size());
  for (const int n : sizes) {
    EXPECT_NE(loaded.lookup(Wisdom::Key{simd::to_string(simd::active_level()),
                                        n, "estimate", "generated"}),
              nullptr);
  }
}

TEST(WisdomRegistry, ReloadsWhenTheFileChangesUnderneath) {
  // External rewrites (another process, a test fixture) must be visible:
  // the registry fingerprints the file and reloads on change.
  const TempFile file("wisdom_reload.txt");
  WisdomRegistry::global().invalidate(file.path());
  const Wisdom::Key key{"avx512", 6, "measure", "simd"};
  EXPECT_FALSE(WisdomRegistry::global().lookup(file.path(), key).has_value());

  Wisdom external;
  external.insert(key, core::Plan::iterative(6));
  external.save(file.path());
  const auto hit = WisdomRegistry::global().lookup(file.path(), key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, core::Plan::iterative(6));
}

TEST(PlannerWisdom, FixedStrategyBypassesTheCache) {
  const TempFile file("wisdom_fixed.txt");
  auto t = Planner()
               .wisdom_file(file.path())
               .fixed(core::Plan::balanced_binary(8, 4))
               .plan();
  EXPECT_FALSE(t.planning().from_wisdom);
  EXPECT_EQ(Wisdom::load(file.path()).size(), 0u);
}

}  // namespace
}  // namespace whtlab::api
