#include <gtest/gtest.h>

#include <atomic>
#include <fstream>

#include "support/cli.h"
#include "support/csv.h"
#include "support/log.h"
#include "support/threadpool.h"
#include "test_util.h"

namespace fed {
namespace {

// ---- CliFlags ----

TEST(CliFlags, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--rounds=50", "--mu", "0.1", "--verbose"};
  CliFlags flags(5, argv);
  EXPECT_EQ(flags.get_int("rounds", 0), 50);
  EXPECT_DOUBLE_EQ(flags.get_double("mu", 0.0), 0.1);
  EXPECT_TRUE(flags.get_bool("verbose", false));
}

TEST(CliFlags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  CliFlags flags(1, argv);
  EXPECT_EQ(flags.get_int("rounds", 7), 7);
  EXPECT_EQ(flags.get_string("name", "x"), "x");
  EXPECT_FALSE(flags.get_bool("flag", false));
}

TEST(CliFlags, MalformedValueThrows) {
  const char* argv[] = {"prog", "--rounds=abc"};
  CliFlags flags(2, argv);
  EXPECT_THROW(flags.get_int("rounds", 0), std::invalid_argument);
}

TEST(CliFlags, DoubleListParsing) {
  const char* argv[] = {"prog", "--mus=0,0.01,1"};
  CliFlags flags(2, argv);
  const auto mus = flags.get_double_list("mus", {});
  ASSERT_EQ(mus.size(), 3u);
  EXPECT_DOUBLE_EQ(mus[1], 0.01);
}

TEST(CliFlags, PositionalAndUnused) {
  const char* argv[] = {"prog", "data.csv", "--typo=1"};
  CliFlags flags(3, argv);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "data.csv");
  EXPECT_EQ(flags.unused().size(), 1u);
}

TEST(CliFlags, NegativeNumberAsValue) {
  const char* argv[] = {"prog", "--mu=-0.5"};
  CliFlags flags(2, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("mu", 0.0), -0.5);
}

// ---- CSV ----

TEST(Csv, WritesHeaderAndRows) {
  const testing::ScopedTempDir tmp;
  const std::string path = tmp.file("csv/out.csv");
  {
    CsvWriter csv(path, {"a", "b"});
    csv.write_row({"1", "x,y"});
    csv.write_row_numeric({2.5, 3.0});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"x,y\"");  // comma cell gets quoted
  std::getline(in, line);
  EXPECT_EQ(line, "2.5,3");
}

TEST(Csv, RowWidthMismatchThrows) {
  const testing::ScopedTempDir tmp;
  CsvWriter csv(tmp.file("csv/out.csv"), {"a", "b"});
  EXPECT_THROW(csv.write_row({"only-one"}), std::invalid_argument);
}

TEST(Csv, EscapesQuotes) {
  const testing::ScopedTempDir tmp;
  const std::string path = tmp.file("csv/out.csv");
  {
    CsvWriter csv(path, {"a"});
    csv.write_row({"say \"hi\""});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);
  EXPECT_EQ(line, "\"say \"\"hi\"\"\"");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "v"});
  t.add_row({"long-name", "1"});
  t.add_row({"x", "22"});
  const std::string render = t.render();
  EXPECT_NE(render.find("long-name  1"), std::string::npos);
  EXPECT_NE(render.find("---------"), std::string::npos);
}

TEST(TablePrinterTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::fmt(1.23456, 2), "1.23");
}

// ---- ThreadPool ----

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(100);
  pool.parallel_for(100, [&](std::size_t i) { visits[i]++; });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   8,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPoolTest, SubmitReturnsUsableFuture) {
  ThreadPool pool(1);
  std::atomic<int> x{0};
  auto fut = pool.submit([&] { x = 42; });
  fut.get();
  EXPECT_EQ(x.load(), 42);
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

// ---- Logging ----

TEST(Log, LevelFiltering) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kOff);
  log_info() << "should not crash or print";
  set_log_level(original);
  SUCCEED();
}

}  // namespace
}  // namespace fed
