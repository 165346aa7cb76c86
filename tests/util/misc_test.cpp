// Tests for the small utility pieces: aligned buffers, CSV escaping, text
// tables, CLI parsing, env parsing.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/aligned_buffer.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace whtlab::util {
namespace {

TEST(AlignedBuffer, AlignmentAndSize) {
  // The second size is a mapped buffer (kMappedBufferBytes and up).
  for (const std::size_t count : {std::size_t{1000}, std::size_t{1} << 17}) {
    AlignedBuffer buf(count);
    EXPECT_EQ(buf.size(), count);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kCacheLineBytes,
              0u);
    buf[0] = 1.0;
    buf[count - 1] = 2.0;
    EXPECT_EQ(buf[0] + buf[count - 1], 3.0);
  }
}

TEST(AlignedBuffer, FillAndIndex) {
  AlignedBuffer buf(16);
  buf.fill(2.5);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 2.5);
  buf[3] = -1.0;
  EXPECT_EQ(buf[3], -1.0);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  for (const std::size_t count : {std::size_t{8}, std::size_t{1} << 17}) {
    AlignedBuffer a(count);
    a.fill(1.0);
    double* ptr = a.data();
    AlignedBuffer b(std::move(a));
    EXPECT_EQ(b.data(), ptr);
    EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(a.empty());
    // Move-assignment releases what the target held, of either kind.
    AlignedBuffer c(8);
    c = std::move(b);
    EXPECT_EQ(c.data(), ptr);
    EXPECT_EQ(c[count - 1], 1.0);
    c = AlignedBuffer(1u << 17);
    EXPECT_EQ(c.size(), std::size_t{1} << 17);
  }
}

TEST(AlignedBuffer, EmptyBuffer) {
  AlignedBuffer buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.data(), nullptr);
}

TEST(Csv, EscapingRules) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvWriter::escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("with\nnewline"), "\"with\nnewline\"");
}

TEST(Csv, NumFormattingRoundTrips) {
  EXPECT_EQ(std::stod(CsvWriter::num(0.1)), 0.1);
  EXPECT_EQ(CsvWriter::num(std::uint64_t{42}), "42");
  EXPECT_EQ(CsvWriter::num(-7), "-7");
}

TEST(Csv, WritesFile) {
  const std::string path = ::testing::TempDir() + "/whtlab_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.header({"a", "b"});
    csv.row({"1", "x,y"});
  }
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "a,b\n1,\"x,y\"\n");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), std::runtime_error);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name   value"), std::string::npos);
  EXPECT_NE(out.find("alpha      1"), std::string::npos);  // numbers right-aligned
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(TextTable::fmt(3.14159, 3), "3.14");
  EXPECT_EQ(TextTable::fmt(1234567.0, 4), "1.235e+06");
}

TEST(Table, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW(t.render());
}

TEST(Cli, ParsesFlagsAndPositional) {
  Cli cli;
  cli.add_flag("samples", "sample count", "100");
  cli.add_flag("csv", "csv output dir");
  cli.add_bool("verbose", "chatty");
  const char* argv[] = {"prog", "--samples", "250", "--verbose", "pos1",
                        "--csv=out"};
  ASSERT_TRUE(cli.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(cli.get_int("samples", 0), 250);
  EXPECT_EQ(cli.get("csv"), "out");
  EXPECT_EQ(cli.get("verbose"), "true");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, DefaultsApply) {
  Cli cli;
  cli.add_flag("samples", "sample count", "100");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, const_cast<char**>(argv)));
  EXPECT_TRUE(cli.has("samples"));
  EXPECT_EQ(cli.get_int("samples", 0), 100);
  EXPECT_EQ(cli.get_double("samples", 0.0), 100.0);
}

TEST(Cli, NumbersRejectTrailingText) {
  Cli cli;
  cli.add_flag("slots", "count");
  cli.add_flag("wedge-ms", "ms");
  const char* argv[] = {"prog", "--slots=3abc", "--wedge-ms", "2x"};
  ASSERT_TRUE(cli.parse(4, const_cast<char**>(argv)));
  EXPECT_THROW(cli.get_int("slots", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_int("wedge-ms", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("wedge-ms", 0.0), std::invalid_argument);
}

TEST(Cli, IntListSkipsEmptyEntries) {
  Cli cli;
  cli.add_flag("threads", "list", "1,2,4");
  cli.add_flag("none", "empty list");
  const char* argv[] = {"prog", "--none", ",,"};
  ASSERT_TRUE(cli.parse(3, const_cast<char**>(argv)));
  EXPECT_EQ(cli.get_int_list("threads"), (std::vector<int>{1, 2, 4}));
  EXPECT_TRUE(cli.get_int_list("none").empty());
}

TEST(Cli, IntListRejectsTrailingTextAndOutOfRangeEntries) {
  Cli cli;
  cli.add_flag("threads", "list");
  cli.add_flag("clients", "list");
  const char* argv[] = {"prog", "--threads", "1,2x,4y", "--clients",
                        "1,99999999999"};
  ASSERT_TRUE(cli.parse(5, const_cast<char**>(argv)));
  EXPECT_THROW(cli.get_int_list("threads"), std::invalid_argument);
  EXPECT_THROW(cli.get_int_list("clients"), std::invalid_argument);
  try {
    cli.get_int_list("threads");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos)
        << e.what();
  }
}

TEST(Cli, UnknownFlagFails) {
  Cli cli;
  const char* argv[] = {"prog", "--bogus"};
  EXPECT_FALSE(cli.parse(2, const_cast<char**>(argv)));
}

TEST(Env, IntParsingWithDefault) {
  ::unsetenv("WHTLAB_TEST_ENV");
  EXPECT_EQ(env_int("WHTLAB_TEST_ENV", 7), 7);
  ::setenv("WHTLAB_TEST_ENV", "123", 1);
  EXPECT_EQ(env_int("WHTLAB_TEST_ENV", 7), 123);
  ::setenv("WHTLAB_TEST_ENV", "12x", 1);
  EXPECT_THROW(env_int("WHTLAB_TEST_ENV", 7), std::invalid_argument);
  ::unsetenv("WHTLAB_TEST_ENV");
}

TEST(Env, DoubleParsing) {
  ::setenv("WHTLAB_TEST_ENV_D", "0.25", 1);
  EXPECT_EQ(env_double("WHTLAB_TEST_ENV_D", 1.0), 0.25);
  ::unsetenv("WHTLAB_TEST_ENV_D");
  EXPECT_EQ(env_double("WHTLAB_TEST_ENV_D", 1.0), 1.0);
}

TEST(Env, EmptyTreatedAsUnset) {
  ::setenv("WHTLAB_TEST_ENV_E", "", 1);
  EXPECT_FALSE(env_string("WHTLAB_TEST_ENV_E").has_value());
  ::unsetenv("WHTLAB_TEST_ENV_E");
}

}  // namespace
}  // namespace whtlab::util
