#include "config/network_cli.hpp"

#include <limits>

#include "engine/detail/cli_parse.hpp"

namespace profisched::config {

namespace {

constexpr Ticks kMaxTicks = std::numeric_limits<Ticks>::max();

}  // namespace

bool NetworkCli::horizon(Ticks ticks_per_ms, Ticks& out, std::string& error) const {
  if (ticks_per_ms <= 0 || milliseconds > static_cast<std::size_t>(kMaxTicks / ticks_per_ms)) {
    error = "--ms " + std::to_string(milliseconds) + " does not fit the tick horizon at " +
            std::to_string(ticks_per_ms) + " ticks per ms";
    return false;
  }
  out = static_cast<Ticks>(milliseconds) * ticks_per_ms;
  return true;
}

bool parse_network_args(const std::vector<std::string>& args, NetworkCli& out,
                        std::string& error) {
  NetworkCli cli;
  const auto fail = [&](const std::string& msg) {
    error = msg;
    return false;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto next = [&](std::string& v) {
      if (i + 1 >= args.size()) return false;
      v = args[++i];
      return true;
    };
    std::string v;
    std::size_t count = 0;
    if (arg == "--policy") {
      if (!next(v) || v.empty()) return fail("--policy needs a policy name");
      cli.policy = v;
    } else if (arg == "--ms") {
      if (!next(v) ||
          !engine::parse_cli_count(v, cli.milliseconds, static_cast<std::size_t>(kMaxTicks))) {
        return fail("--ms needs a non-negative integer");
      }
    } else if (arg == "--seed") {
      if (!next(v) || !engine::parse_cli_count(v, count)) {
        return fail("--seed needs a non-negative integer");
      }
      cli.seed = count;
    } else if (arg == "--histograms") {
      cli.histograms = true;
    } else if (arg == "--trace") {
      if (!next(v) || !engine::parse_cli_count(v, cli.trace_events, 1'000'000)) {
        return fail("--trace needs an event count in [0, 1e6]");
      }
    } else {
      return fail("unknown flag '" + arg + "'");
    }
  }
  out = std::move(cli);
  error.clear();
  return true;
}

}  // namespace profisched::config
