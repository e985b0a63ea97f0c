// config/network_cli.hpp — flag parsing for the subcommands that read one
// network from an INI file (`profisched analyze|simulate|ttr <file.ini>`),
// kept in the library so the validation is unit-testable
// (tests/config/test_network_cli.cpp). Numbers go through the same strict
// parser as every sweep flag (engine/detail/cli_parse.hpp), so a negative
// or overflowing value is a flag-named error, not a silent wraparound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/time_types.hpp"

namespace profisched::config {

struct NetworkCli {
  std::string policy;                ///< --policy; empty = the subcommand's default
  std::size_t milliseconds = 1'000;  ///< --ms: simulated horizon
  std::uint64_t seed = 1;            ///< --seed
  bool histograms = false;           ///< --histograms
  std::size_t trace_events = 0;      ///< --trace N: print the first N events

  /// The --ms horizon in ticks. False, with a --ms diagnostic in `error`,
  /// when milliseconds * ticks_per_ms does not fit in Ticks.
  [[nodiscard]] bool horizon(Ticks ticks_per_ms, Ticks& out, std::string& error) const;
};

/// Parse the flags after `<file.ini>`: --policy NAME, --ms N, --seed N,
/// --histograms, --trace N. Returns false with a one-line diagnostic in
/// `error` on an unknown flag, a missing value or an out-of-range number.
[[nodiscard]] bool parse_network_args(const std::vector<std::string>& args, NetworkCli& out,
                                      std::string& error);

}  // namespace profisched::config
