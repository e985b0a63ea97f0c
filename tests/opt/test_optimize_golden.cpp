// Golden lock (PR 6): the optimize tables for a small fixed spec are frozen
// byte-for-byte on disk. Any change to the bisection order, quantile math,
// serialization, or scenario generation shows up as a diff here
// (regenerate deliberately with PROFISCHED_REGEN_GOLDEN=1).
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "opt/opt_aggregate.hpp"
#include "opt/opt_cli.hpp"
#include "opt/optimizer.hpp"

namespace profisched::opt {
namespace {

constexpr const char* kCsvGolden = "tests/golden/optimize_pr6.csv";
constexpr const char* kJsonGolden = "tests/golden/optimize_pr6.json";
/// Written by the full-analysis probes; the verdict-only probes must match.
constexpr const char* kSatCsvGolden = "tests/golden/optimize_sat.csv";
constexpr const char* kSatJsonGolden = "tests/golden/optimize_sat.json";

OptimizeSpec golden_spec() {
  OptimizeSpec spec;
  spec.sweep.base.n_masters = 2;
  spec.sweep.base.streams_per_master = 3;
  spec.sweep.base.ttr = 3'000;
  spec.sweep.points = {engine::SweepPoint{0.3, 0.5, 1.0}, engine::SweepPoint{0.7, 0.5, 1.0}};
  spec.sweep.scenarios_per_point = 6;
  spec.sweep.policies = {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf};
  spec.sweep.seed = 99;
  return spec;
}

void check_golden(const char* path, const std::string& got) {
  if (std::getenv("PROFISCHED_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << path
                         << " (run with PROFISCHED_REGEN_GOLDEN=1 to create)";
  std::ostringstream want;
  want << in.rdbuf();
  // Byte-identical: the optimize output is part of the artifact contract —
  // shard merges and cache hits are compared against these exact bytes.
  ASSERT_EQ(got, want.str());
}

TEST(OptimizeGolden, CsvMatches) {
  const OptimizeSpec spec = golden_spec();
  engine::SweepRunner runner(2);
  check_golden(kCsvGolden, aggregate_optimize(spec, run_optimize(runner, spec)).to_csv());
}

TEST(OptimizeGolden, JsonMatches) {
  const OptimizeSpec spec = golden_spec();
  engine::SweepRunner runner(2);
  check_golden(kJsonGolden, aggregate_optimize(spec, run_optimize(runner, spec)).to_json());
}

/// The saturated grid: u up to 1.2 and all four policies, so the bisections
/// probe far past breakdown (saturated masters, DM fixed points above their
/// deadlines, EDF scans that miss early).
OptimizeSpec saturated_spec() {
  OptimizeCli cli;
  std::string error;
  const bool ok = parse_optimize_args({"--masters", "2", "--streams", "8", "--u", "0.5:1.2:4",
                                       "--policies", "fcfs,dm,edf,opa", "--scenarios", "30",
                                       "--seed", "11"},
                                      cli, error);
  EXPECT_TRUE(ok) << error;
  return cli.spec;
}

TEST(OptimizeGolden, SaturatedCsvAndJsonMatch) {
  const OptimizeSpec spec = saturated_spec();
  engine::SweepRunner runner(2);
  const OptimizeTable table = aggregate_optimize(spec, run_optimize(runner, spec));
  check_golden(kSatCsvGolden, table.to_csv());
  check_golden(kSatJsonGolden, table.to_json());
}

}  // namespace
}  // namespace profisched::opt
