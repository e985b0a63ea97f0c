// dist/dist_cli.hpp — argument parsing for the `profisched shard` and
// `profisched merge` subcommands, kept in the library so the validation is
// unit-testable (tests/dist/test_dist_cli.cpp) exactly like the simulate
// parser in engine/sim_cli.hpp. Both parsers use the shared strict scalar
// table from engine/detail/cli_parse.hpp.
#pragma once

#include <string>
#include <vector>

#include "dist/shard.hpp"
#include "engine/sim_cli.hpp"

namespace profisched::dist {

/// Everything `profisched shard` needs: which shard of which plan, where the
/// artifact goes, and the full sweep spec (same flags and defaults as the
/// sweep/simulate subcommands — a shard MUST describe its sweep identically
/// to the single-process run it will be compared against).
/// The inherited csv_path/json_path stay empty: a shard's one output is the
/// artifact at out_path.
struct ShardCli : engine::SweepRunFlags {
  ShardSpec shard;
  std::uint64_t index = 0;  ///< 0-based (the CLI's k/K form is 1-based)
  std::uint64_t count = 1;
  std::string out_path;
};

/// Parse the flags after `profisched shard`. Accepts --shard k/K (required,
/// 1 <= k <= K), --out FILE (required), --mode sweep|simulate|combined|
/// optimize (default sweep), and every flag of the subcommand the mode
/// names except --csv/--json: sweep mode takes `profisched sweep`'s flags
/// (full analysis policy table, simulator flags rejected), simulate/combined
/// take `profisched simulate`'s, optimize takes `profisched optimize`'s
/// (search brackets included). Returns true on success; false with a
/// one-line diagnostic in `error` (never throws).
[[nodiscard]] bool parse_shard_args(const std::vector<std::string>& args, ShardCli& out,
                                    std::string& error);

/// Everything `profisched merge` needs: the shard artifact files plus where
/// the merged CSV/JSON go.
struct MergeCli {
  std::vector<std::string> inputs;
  std::string csv_path;
  std::string json_path;
  std::string metrics_path;  ///< --metrics FILE: metrics + run-manifest JSON sidecar
};

/// Parse the flags after `profisched merge`: [--csv FILE] [--json FILE]
/// [--metrics FILE] SHARD_FILE... (at least one artifact; anything starting
/// with "--" that is not a known flag is rejected rather than read as a file
/// name).
[[nodiscard]] bool parse_merge_args(const std::vector<std::string>& args, MergeCli& out,
                                    std::string& error);

}  // namespace profisched::dist
