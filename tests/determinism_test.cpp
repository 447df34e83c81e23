// Cross-run determinism: two identical isex invocations (same flags, same
// seeds) must produce byte-identical artifacts — the certify -o report, the
// --metrics JSON, and the command's stdout. Deterministic work caps (node
// budgets, fixed RNG seeds) rather than wall clocks make this possible; the
// first run below warms every lazy cache (workload memoization) so both
// measured runs take identical code paths, and the metrics registry is reset
// to the process-start state before each, exactly what a fresh invocation of
// the binary would see.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "isex/cli/driver.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/serve/json.hpp"

namespace isex::cli {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Runs the CLI with stdout captured to `stdout_path` and stderr discarded.
int run_captured(const std::vector<std::string>& args,
                 const std::string& stdout_path) {
  ::fflush(stdout);
  ::fflush(stderr);
  const int out = ::dup(1), err = ::dup(2);
  const int cap = ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                         0644);
  const int null = ::open("/dev/null", O_WRONLY);
  ::dup2(cap, 1);
  ::dup2(null, 2);
  const int rc = run(args);
  ::fflush(stdout);
  ::fflush(stderr);
  ::dup2(out, 1);
  ::dup2(err, 2);
  ::close(out);
  ::close(err);
  ::close(cap);
  ::close(null);
  return rc;
}

TEST(Determinism, CertifyReportMetricsAndStdoutAreByteIdentical) {
  const std::string report = "/tmp/isex_det_certify.json";
  const std::string metrics = "/tmp/isex_det_metrics.json";
  const std::string stdout_path = "/tmp/isex_det_stdout.txt";
  const std::vector<std::string> args = {
      "--metrics=" + metrics, "certify", "crc32", "g721decode",
      "-o",                   report};

  ASSERT_EQ(run_captured(args, stdout_path), 0);  // warm lazy caches
  obs::Registry::global().reset();
  ASSERT_EQ(run_captured(args, stdout_path), 0);
  const std::string report1 = slurp(report);
  const std::string metrics1 = slurp(metrics);
  const std::string stdout1 = slurp(stdout_path);

  obs::Registry::global().reset();
  ASSERT_EQ(run_captured(args, stdout_path), 0);
  EXPECT_EQ(report1, slurp(report));
  EXPECT_EQ(metrics1, slurp(metrics));
  EXPECT_EQ(stdout1, slurp(stdout_path));
  EXPECT_FALSE(report1.empty());
  const serve::JsonParseResult parsed = serve::json_parse(report1);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const serve::Json* ok = parsed.value.find("ok");
  EXPECT_TRUE(ok != nullptr && ok->is_bool() && ok->as_bool()) << report1;

  std::remove(report.c_str());
  std::remove(metrics.c_str());
  std::remove(stdout_path.c_str());
}

TEST(Determinism, SelectAndReconfigStdoutAreByteIdentical) {
  const std::string stdout_path = "/tmp/isex_det_cmd.txt";
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"select", "1.08", "0.5", "edf", "crc32",
                                 "sha", "g721decode"},
        std::vector<std::string>{"reconfig", "12", "42"}}) {
    ASSERT_EQ(run_captured(args, stdout_path), 0);  // warm lazy caches
    const std::string first = slurp(stdout_path);
    ASSERT_EQ(run_captured(args, stdout_path), 0);
    EXPECT_EQ(first, slurp(stdout_path));
    EXPECT_FALSE(first.empty());
  }
  std::remove(stdout_path.c_str());
}

}  // namespace
}  // namespace isex::cli
