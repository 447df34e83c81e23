// The CLI driver as a library: exit codes, I/O-error hardening, malformed
// argument diagnostics, and the global budget/strict flags — all exercised
// in-process through isex::cli::run, i.e. exactly the code path the shipped
// binary runs.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "isex/cli/driver.hpp"
#include "isex/serve/json.hpp"
#include "isex/util/file.hpp"

namespace isex::cli {
namespace {

/// A report file the CLI wrote, parsed (with the limits bench_compare uses
/// for large reports); fails the test when it is not valid JSON.
serve::Json parse_report(const std::string& path) {
  const util::FileReadResult f = util::read_file_bounded(path, 64u << 20);
  EXPECT_TRUE(f.ok) << f.error;
  serve::JsonLimits limits;
  limits.max_values = 1 << 22;
  const serve::JsonParseResult r = serve::json_parse(
      std::string_view(reinterpret_cast<const char*>(f.data.data()),
                       f.data.size()),
      limits);
  EXPECT_TRUE(r.ok()) << path << ": " << r.error;
  return r.value;
}

/// Runs the CLI with stdout/stderr redirected to /dev/null (the commands
/// print tables; the tests only care about the exit code).
int run_quiet(const std::vector<std::string>& args) {
  ::fflush(stdout);
  ::fflush(stderr);
  const int out = ::dup(1), err = ::dup(2);
  const int null = ::open("/dev/null", O_WRONLY);
  ::dup2(null, 1);
  ::dup2(null, 2);
  const int rc = run(args);
  ::fflush(stdout);
  ::fflush(stderr);
  ::dup2(out, 1);
  ::dup2(err, 2);
  ::close(out);
  ::close(err);
  ::close(null);
  return rc;
}

TEST(Cli, NoArgsIsUsageError) { EXPECT_EQ(run_quiet({}), 2); }

TEST(Cli, UnknownCommandIsUsageError) {
  EXPECT_EQ(run_quiet({"frobnicate"}), 2);
}

TEST(Cli, ListSucceeds) { EXPECT_EQ(run_quiet({"list"}), 0); }

TEST(Cli, MalformedNumbersExitTwoNotCrash) {
  EXPECT_EQ(run_quiet({"select", "abc", "0.5", "edf", "crc32"}), 2);
  EXPECT_EQ(run_quiet({"select", "1.08", "nan-ish", "edf", "crc32"}), 2);
  EXPECT_EQ(run_quiet({"select", "1.08", "1.5", "edf", "crc32"}), 2);  // > 1
  EXPECT_EQ(run_quiet({"select", "-2", "0.5", "edf", "crc32"}), 2);    // <= 0
  EXPECT_EQ(run_quiet({"select", "1.08", "0.5", "lifo", "crc32"}), 2);
  EXPECT_EQ(run_quiet({"reconfig", "ten", "7"}), 2);
  EXPECT_EQ(run_quiet({"reconfig", "10", "-7"}), 2);
  EXPECT_EQ(run_quiet({"pareto", "crc32", "0"}), 2);  // eps must be > 0
}

TEST(Cli, UnknownBenchmarkExitsTwoWithSuggestion) {
  EXPECT_EQ(run_quiet({"curve", "crc33"}), 2);
  EXPECT_EQ(run_quiet({"select", "1.08", "0.5", "edf", "nosuchkernel"}), 2);
}

TEST(Cli, MalformedBudgetFlagsExitTwo) {
  EXPECT_EQ(run_quiet({"--time-budget", "soon", "list"}), 2);
  EXPECT_EQ(run_quiet({"--time-budget", "-5ms", "list"}), 2);
  EXPECT_EQ(run_quiet({"--time-budget=0", "list"}), 2);
  EXPECT_EQ(run_quiet({"--node-budget", "many", "list"}), 2);
  EXPECT_EQ(run_quiet({"--mem-budget", "-1G", "list"}), 2);
  EXPECT_EQ(run_quiet({"list", "--time-budget"}), 2);  // missing value
}

TEST(Cli, WellFormedBudgetFlagsAreAcceptedAnywhere) {
  EXPECT_EQ(run_quiet({"--time-budget", "2s", "list"}), 0);
  EXPECT_EQ(run_quiet({"list", "--node-budget=500K"}), 0);
  EXPECT_EQ(run_quiet({"--mem-budget", "64M", "--strict", "list"}), 0);
}

TEST(Cli, UnwritableMetricsPathExitsTwo) {
  EXPECT_EQ(run_quiet({"--metrics=/nonexistent-dir/m.json", "list"}), 2);
  EXPECT_EQ(run_quiet({"--metrics=/tmp/isex_cli_test_metrics.json", "list"}),
            0);
  std::remove("/tmp/isex_cli_test_metrics.json");
}

TEST(Cli, UnwritableTraceOutputExitsTwo) {
  EXPECT_EQ(run_quiet({"trace", "crc32", "-o", "/nonexistent-dir/t.json"}), 2);
}

TEST(Cli, SelectRunsAndReportsSchedulability) {
  // Two small kernels at low utilization: schedulable, exit 0.
  EXPECT_EQ(run_quiet({"select", "1.08", "0.5", "edf", "crc32", "sha"}), 0);
}

TEST(Cli, StrictWithStarvationBudgetExitsThree) {
  // One node of budget cannot finish the RMS branch-and-bound: the ladder
  // returns a non-Exact status and --strict turns that into exit 3.
  EXPECT_EQ(run_quiet({"--node-budget", "1", "--strict", "select", "1.08",
                       "0.5", "rms", "crc32", "sha"}),
            3);
  // Same run without --strict keeps the schedulability exit code.
  EXPECT_EQ(run_quiet({"--node-budget", "1", "select", "1.08", "0.5", "rms",
                       "crc32", "sha"}),
            0);
}

TEST(Cli, BudgetedSelectStillSucceedsUnderGenerousBudget) {
  EXPECT_EQ(run_quiet({"--time-budget", "5s", "--strict", "select", "1.08",
                       "0.5", "edf", "crc32", "sha"}),
            0);
}

TEST(Cli, CertifyWithoutBenchmarksIsUsageError) {
  EXPECT_EQ(run_quiet({"certify"}), 2);
  EXPECT_EQ(run_quiet({"certify", "crc33"}), 2);  // unknown benchmark
  EXPECT_EQ(run_quiet({"certify", "crc32", "--u0", "zero"}), 2);
  EXPECT_EQ(run_quiet({"certify", "crc32", "-o", "/nonexistent-dir/c.json"}),
            2);
}

TEST(Cli, CertifyPassesOnGenuineSolverOutput) {
  // Every stage's witness checker must accept the real solvers' answers.
  EXPECT_EQ(run_quiet({"certify", "crc32"}), 0);
}

TEST(Cli, ParanoidSelectCertifiesCleanOnGenuineOutput) {
  EXPECT_EQ(run_quiet({"--paranoid", "select", "1.08", "0.5", "edf", "crc32",
                       "sha"}),
            0);
  EXPECT_EQ(run_quiet({"--paranoid", "--node-budget=200K", "select", "1.08",
                       "0.5", "rms", "crc32", "sha"}),
            0);
}

TEST(Cli, EveryJsonReportParses) {
  const std::string dir = "/tmp/isex_cli_reports_" + std::to_string(::getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0);
  const std::string metrics = dir + "/metrics.json",
                    certify = dir + "/certify.json",
                    trace = dir + "/trace.json", lift = dir + "/lift.json";
  ASSERT_EQ(run_quiet({"--metrics=" + metrics, "certify", "crc32", "-o",
                       certify}),
            0);
  ASSERT_EQ(run_quiet({"trace", "crc32", "-o", trace}), 0);
  ASSERT_EQ(run_quiet({"lift", "--fixture", "crc32", "-o", lift}), 0);
  EXPECT_NE(parse_report(metrics).find("counters"), nullptr);
  const serve::Json c = parse_report(certify);
  ASSERT_NE(c.find("ok"), nullptr);
  EXPECT_TRUE(c.find("ok")->as_bool());
  EXPECT_NE(parse_report(trace).find("traceEvents"), nullptr);
  const serve::Json l = parse_report(lift);
  ASSERT_NE(l.find("curve"), nullptr);
  EXPECT_FALSE(l.find("curve")->items().empty());
  for (const std::string& f : {metrics, certify, trace, lift})
    std::remove(f.c_str());
  ::rmdir(dir.c_str());
}

TEST(Cli, LiftReportSurvivesHostileFileNames) {
  // A quote, a newline and a byte that is not UTF-8 in the input's name:
  // the report still parses, and the name reads back with U+FFFD in place
  // of the bad byte.
  const std::string dir = "/tmp/isex_cli_hostile_" + std::to_string(::getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0);
  const std::string elf = dir + "/a\"b\n\xff" "c.elf";
  const std::string out = dir + "/out.json";
  ASSERT_EQ(run_quiet({"lift", "--emit-fixture", "crc32", elf}), 0);
  ASSERT_EQ(run_quiet({"lift", elf, "-o", out}), 0);
  const serve::Json report = parse_report(out);
  const serve::Json* name = report.find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->as_string(), dir + "/a\"b\n\xEF\xBF\xBD" "c.elf");
  std::remove(elf.c_str());
  std::remove(out.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace isex::cli
