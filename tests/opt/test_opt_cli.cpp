// `profisched optimize` argument validation (PR 6): defaults, bracket-flag
// fixed-point conversion, policy restriction to the optimizable four, and
// loud one-line diagnostics on every malformed flag.
#include "opt/opt_cli.hpp"

#include <gtest/gtest.h>

namespace profisched::opt {
namespace {

OptimizeCli parse_ok(const std::vector<std::string>& args) {
  OptimizeCli cli;
  std::string error;
  EXPECT_TRUE(parse_optimize_args(args, cli, error)) << error;
  EXPECT_TRUE(error.empty());
  return cli;
}

std::string parse_fail(const std::vector<std::string>& args) {
  OptimizeCli cli;
  std::string error;
  EXPECT_FALSE(parse_optimize_args(args, cli, error));
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(OptCli, DefaultsMatchTheSweepSubcommands) {
  const OptimizeCli cli = parse_ok({});
  EXPECT_EQ(cli.spec.sweep.base.n_masters, 1u);
  EXPECT_EQ(cli.spec.sweep.base.streams_per_master, 5u);
  EXPECT_EQ(cli.spec.sweep.base.ttr, 3'000);
  EXPECT_EQ(cli.spec.sweep.scenarios_per_point, 100u);
  EXPECT_EQ(cli.spec.sweep.points.size(), 9u);  // default 0.1:0.9:9 grid
  ASSERT_EQ(cli.spec.sweep.policies.size(), 3u);
  EXPECT_EQ(cli.spec.sweep.policies[0], engine::Policy::Fcfs);
  EXPECT_EQ(cli.threads, 0u);
  // Optimizer bracket defaults.
  EXPECT_EQ(cli.spec.options.scale_lo_q, 64);
  EXPECT_EQ(cli.spec.options.scale_hi_q, 16 * 1024);
  EXPECT_EQ(cli.spec.options.ttr_cap, 1 << 24);
}

TEST(OptCli, BracketFlagsConvertToQ1024) {
  const OptimizeCli cli =
      parse_ok({"--scale-lo", "0.25", "--scale-hi", "8", "--ttr-cap", "50000", "--dratio-lo",
                "0.5", "--dratio-hi", "4"});
  EXPECT_EQ(cli.spec.options.scale_lo_q, 256);
  EXPECT_EQ(cli.spec.options.scale_hi_q, 8 * 1024);
  EXPECT_EQ(cli.spec.options.ttr_cap, 50'000);
  EXPECT_EQ(cli.spec.options.dratio_lo_q, 512);
  EXPECT_EQ(cli.spec.options.dratio_hi_q, 4 * 1024);
}

TEST(OptCli, AcceptsTheOptimizableFourOnly) {
  const OptimizeCli cli = parse_ok({"--policies", "fcfs,dm,edf,opa"});
  EXPECT_EQ(cli.spec.sweep.policies.size(), 4u);
  EXPECT_NE(parse_fail({"--policies", "fcfs,token"}).find("TOKEN"), std::string::npos);
  (void)parse_fail({"--policies", "holistic"});
  (void)parse_fail({"--policies", "fcfs,fcfs"});
}

TEST(OptCli, GridAndOutputFlagsFlowThrough) {
  const OptimizeCli cli =
      parse_ok({"--scenarios", "7", "--u", "0.2:0.6:3", "--seed", "42", "--threads", "4",
                "--method", "refined", "--csv", "out.csv", "--json", "out.json", "--cache",
                "dir"});
  EXPECT_EQ(cli.spec.sweep.scenarios_per_point, 7u);
  EXPECT_EQ(cli.spec.sweep.points.size(), 3u);
  EXPECT_EQ(cli.spec.sweep.seed, 42u);
  EXPECT_EQ(cli.threads, 4u);
  EXPECT_EQ(cli.spec.sweep.engine.method, profibus::TcycleMethod::PerMasterRefined);
  EXPECT_EQ(cli.csv_path, "out.csv");
  EXPECT_EQ(cli.json_path, "out.json");
  EXPECT_EQ(cli.cache_dir, "dir");
}

TEST(OptCli, RejectsMalformedFlags) {
  (void)parse_fail({"--bogus"});
  (void)parse_fail({"--scenarios", "0"});
  (void)parse_fail({"--scale-lo", "-1"});
  (void)parse_fail({"--scale-lo", "0"});
  (void)parse_fail({"--scale-lo", "4", "--scale-hi", "2"});
  (void)parse_fail({"--dratio-lo", "4", "--dratio-hi", "2"});
  (void)parse_fail({"--ttr-cap", "0"});
  (void)parse_fail({"--method", "magic"});
  (void)parse_fail({"--u", "0.9:0.1:5"});  // inverted grid
  (void)parse_fail({"--csv"});             // missing value
  // The simulator flags of the shared table are not optimize's.
  EXPECT_NE(parse_fail({"--reps", "2"}).find("--reps"), std::string::npos);
  EXPECT_NE(parse_fail({"--faults", "loss=0.1"}).find("--faults"), std::string::npos);
}

TEST(OptCli, OutputDestinationsAreValidatedUpFront) {
  EXPECT_NE(parse_fail({"--csv", "/nonexistent_profisched/out.csv"}).find("--csv"),
            std::string::npos);
  EXPECT_NE(parse_fail({"--json", "/nonexistent_profisched/o.json"}).find("--json"),
            std::string::npos);
  EXPECT_NE(parse_fail({"--metrics", "/nonexistent_profisched/m.json"}).find("--metrics"),
            std::string::npos);
  EXPECT_NE(parse_fail({"--cache", "/dev/null/cache"}).find("--cache"), std::string::npos);
}

}  // namespace
}  // namespace profisched::opt
