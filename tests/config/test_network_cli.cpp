// Flag validation of `profisched analyze|simulate|ttr <file.ini>` — exactly
// what the CLI feeds to parse_network_args, exercised as a library call.
#include "config/network_cli.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace profisched::config {
namespace {

NetworkCli parse_ok(const std::vector<std::string>& args) {
  NetworkCli cli;
  std::string error;
  EXPECT_TRUE(parse_network_args(args, cli, error)) << error;
  EXPECT_TRUE(error.empty());
  return cli;
}

std::string parse_fail(const std::vector<std::string>& args) {
  NetworkCli cli;
  std::string error;
  EXPECT_FALSE(parse_network_args(args, cli, error));
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(NetworkCli, DefaultsAndFullFlagSurface) {
  const NetworkCli d = parse_ok({});
  EXPECT_TRUE(d.policy.empty());
  EXPECT_EQ(d.milliseconds, 1'000u);
  EXPECT_EQ(d.seed, 1u);
  EXPECT_FALSE(d.histograms);
  EXPECT_EQ(d.trace_events, 0u);

  const NetworkCli cli = parse_ok({"--policy", "edf", "--ms", "250", "--seed",
                                   "18446744073709551615", "--histograms", "--trace", "40"});
  EXPECT_EQ(cli.policy, "edf");
  EXPECT_EQ(cli.milliseconds, 250u);
  EXPECT_EQ(cli.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(cli.histograms);
  EXPECT_EQ(cli.trace_events, 40u);
}

TEST(NetworkCli, NegativeAndOverflowingNumbersNameTheirFlag) {
  // A negative value must not wrap into a 2^64-1 seed or a SIZE_MAX-event trace.
  EXPECT_NE(parse_fail({"--seed", "-1"}).find("--seed"), std::string::npos);
  EXPECT_NE(parse_fail({"--trace", "-1"}).find("--trace"), std::string::npos);
  EXPECT_NE(parse_fail({"--trace", "1000001"}).find("--trace"), std::string::npos);
  EXPECT_NE(parse_fail({"--ms", "-5"}).find("--ms"), std::string::npos);
  EXPECT_NE(parse_fail({"--ms", "9223372036854775808"}).find("--ms"), std::string::npos);
  EXPECT_NE(parse_fail({"--ms", "12x"}).find("--ms"), std::string::npos);
  EXPECT_NE(parse_fail({"--seed", "99999999999999999999"}).find("--seed"), std::string::npos);
}

TEST(NetworkCli, RejectsUnknownFlagsAndMissingValues) {
  EXPECT_NE(parse_fail({"--bogus"}).find("--bogus"), std::string::npos);
  EXPECT_NE(parse_fail({"--ms"}).find("--ms"), std::string::npos);
  EXPECT_NE(parse_fail({"--policy"}).find("--policy"), std::string::npos);
  EXPECT_NE(parse_fail({"--policy", ""}).find("--policy"), std::string::npos);
}

TEST(NetworkCli, HorizonMustFitInTicks) {
  std::string error;
  Ticks horizon = 0;
  NetworkCli cli = parse_ok({"--ms", "2000"});
  ASSERT_TRUE(cli.horizon(500, horizon, error)) << error;
  EXPECT_EQ(horizon, 1'000'000);

  // INT64_MAX ms parses, but times 500 ticks/ms it would overflow Ticks
  // (signed-overflow UB), so the horizon is refused by name instead.
  cli = parse_ok({"--ms", "9223372036854775807"});
  EXPECT_FALSE(cli.horizon(500, horizon, error));
  EXPECT_NE(error.find("--ms"), std::string::npos) << error;

  // The largest horizon that fits is accepted exactly.
  const Ticks max = std::numeric_limits<Ticks>::max();
  cli.milliseconds = static_cast<std::size_t>(max / 500);
  ASSERT_TRUE(cli.horizon(500, horizon, error)) << error;
  EXPECT_EQ(horizon, max / 500 * 500);
  cli.milliseconds += 1;
  EXPECT_FALSE(cli.horizon(500, horizon, error));
}

}  // namespace
}  // namespace profisched::config
