// Unit tests for bench/bench_util.hpp — the CLI shared by every
// figure-reproduction binary. parse_args exits the process on --help and
// on unrecognized input, so those paths run as death tests.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace skp::bench {
namespace {

// argv helper: owns mutable copies (argv elements are char*, not const).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    strings_.insert(strings_.begin(), "bench_binary");
    for (auto& s : strings_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> ptrs_;
};

TEST(BenchUtil, DefaultsWithNoArguments) {
  Argv a({});
  const BenchArgs args = parse_args(a.argc(), a.argv());
  EXPECT_FALSE(args.full);
  EXPECT_EQ(args.seed, 1u);
  EXPECT_FALSE(args.csv_dir.has_value());
}

TEST(BenchUtil, FullFlag) {
  Argv a({"--full"});
  EXPECT_TRUE(parse_args(a.argc(), a.argv()).full);
}

TEST(BenchUtil, SeedParsesU64) {
  Argv a({"--seed", "18446744073709551615"});  // max u64 round-trips
  EXPECT_EQ(parse_args(a.argc(), a.argv()).seed,
            18446744073709551615ull);
}

// A fresh path under the test temp directory (parse_args creates --csv
// directories, so the tests keep them out of the working directory).
std::string temp_path(const std::string& leaf) {
  const std::filesystem::path p =
      std::filesystem::path(::testing::TempDir()) / "bench_util" / leaf;
  std::filesystem::remove_all(p);
  return p.string();
}

TEST(BenchUtil, CsvCapturesDirectory) {
  const std::string dir = temp_path("out/dir");
  Argv a({"--csv", dir});
  const BenchArgs args = parse_args(a.argc(), a.argv());
  ASSERT_TRUE(args.csv_dir.has_value());
  EXPECT_EQ(*args.csv_dir, dir);
}

TEST(BenchUtil, CsvCreatesAMissingDirectoryUpFront) {
  const std::string dir = temp_path("missing/nested");
  ASSERT_FALSE(std::filesystem::exists(dir));
  Argv a({"--csv", dir});
  parse_args(a.argc(), a.argv());
  EXPECT_TRUE(std::filesystem::is_directory(dir));
}

TEST(BenchUtil, ThreadsDefaultsToHardware) {
  Argv a({});
  EXPECT_EQ(parse_args(a.argc(), a.argv()).threads, 0u);  // 0 = hw threads
}

TEST(BenchUtil, ThreadsParsesCount) {
  Argv a({"--threads", "7"});
  EXPECT_EQ(parse_args(a.argc(), a.argv()).threads, 7u);
}

TEST(BenchUtil, PlanCacheOnByDefaultAndSwitchable) {
  Argv on({});
  EXPECT_FALSE(parse_args(on.argc(), on.argv()).no_plan_cache);
  Argv off({"--no-plan-cache"});
  EXPECT_TRUE(parse_args(off.argc(), off.argv()).no_plan_cache);
}

TEST(BenchUtil, AllFlagsCombineInAnyOrder) {
  const std::string plots = temp_path("plots");
  Argv a({"--csv", plots, "--threads", "3", "--full", "--seed", "42",
          "--no-plan-cache"});
  const BenchArgs args = parse_args(a.argc(), a.argv());
  EXPECT_TRUE(args.full);
  EXPECT_EQ(args.seed, 42u);
  EXPECT_EQ(args.threads, 3u);
  EXPECT_TRUE(args.no_plan_cache);
  ASSERT_TRUE(args.csv_dir.has_value());
  EXPECT_EQ(*args.csv_dir, plots);
}

TEST(BenchUtilDeathTest, UnknownFlagExits2) {
  Argv a({"--bogus"});
  EXPECT_EXIT(parse_args(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "unknown argument: --bogus");
}

TEST(BenchUtilDeathTest, SeedMissingValueIsRejected) {
  // A trailing --seed has no value; parse_args treats it as unknown input
  // rather than silently defaulting.
  Argv a({"--seed"});
  EXPECT_EXIT(parse_args(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "unknown argument: --seed");
}

TEST(BenchUtilDeathTest, CsvMissingValueIsRejected) {
  Argv a({"--csv"});
  EXPECT_EXIT(parse_args(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "unknown argument: --csv");
}

TEST(BenchUtilDeathTest, ThreadsMissingValueIsRejected) {
  Argv a({"--threads"});
  EXPECT_EXIT(parse_args(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "unknown argument: --threads");
}

TEST(BenchUtilDeathTest, CsvUnderAFileExits1BeforeAnyWork) {
  // The parent of the requested directory is a regular file, so the
  // directory can never be created: parse_args must stop right there.
  const std::string base = temp_path("a_file");
  std::filesystem::create_directories(
      std::filesystem::path(base).parent_path());
  std::ofstream(base) << "x";
  Argv a({"--csv", base + "/sub"});
  EXPECT_EXIT(parse_args(a.argc(), a.argv()), ::testing::ExitedWithCode(1),
              "cannot create output directory");
}

TEST(BenchUtilDeathTest, NonNumericSeedIsRejected) {
  for (const char* bad : {"abc", "12x", "", "-1", "+5", " 7",
                          "18446744073709551616"}) {
    Argv a({"--seed", bad});
    EXPECT_EXIT(parse_args(a.argc(), a.argv()), ::testing::ExitedWithCode(2),
                "--seed expects an unsigned integer")
        << "'" << bad << "'";
  }
}

TEST(BenchUtilDeathTest, NonNumericThreadsIsRejected) {
  for (const char* bad : {"four", "3.5", "-2"}) {
    Argv a({"--threads", bad});
    EXPECT_EXIT(parse_args(a.argc(), a.argv()), ::testing::ExitedWithCode(2),
                "--threads expects an unsigned integer")
        << "'" << bad << "'";
  }
}

TEST(BenchUtilDeathTest, HelpPrintsUsageAndExits0) {
  Argv a({"--help"});
  // Usage goes to stdout (not stderr), so match only the exit status.
  EXPECT_EXIT(parse_args(a.argc(), a.argv()),
              ::testing::ExitedWithCode(0), "");
}

TEST(BenchUtilDeathTest, ShortHelpAlsoExits0) {
  Argv a({"-h"});
  EXPECT_EXIT(parse_args(a.argc(), a.argv()),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace skp::bench
