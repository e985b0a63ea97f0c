// sim_cli.hpp — the grid flag table every sweep-style subcommand (sweep,
// simulate, optimize, shard) parses through, kept in the library (rather
// than the CLI translation unit) so the argument validation is
// unit-testable: tests/engine/test_sim_cli.cpp feeds it the same argv slices
// the tool does. The strict scalar parsers live in engine/detail/cli_parse.hpp.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/detail/cli_parse.hpp"
#include "engine/sweep_runner.hpp"

namespace profisched::engine {

/// The run and output flags every sweep-style subcommand shares.
struct SweepRunFlags {
  unsigned threads = 0;  ///< 0 = auto
  std::string csv_path;
  std::string json_path;
  std::string cache_dir;     ///< --cache DIR: persistent scenario-result cache
  std::string metrics_path;  ///< --metrics FILE: metrics + run-manifest JSON sidecar
  bool progress = false;     ///< --progress: stderr heartbeat while scenarios run
};

/// Everything the shared table parses: the spec plus the run flags.
struct SimSweepCli : SweepRunFlags {
  SimSweepSpec spec;
  bool combined = false;  ///< also analyse; emit joined consistency rows
};

/// A subcommand's own flag, layered over the shared table. Every such flag
/// takes one value; `apply` parses it (a missing value arrives as "") and on
/// a bad one returns false with a flag-named diagnostic in `error`.
struct CliFlag {
  std::string_view name;
  std::function<bool(const std::string& value, std::string& error)> apply;
};

/// Parse a sweep-style subcommand's flags into `out`. Returns true on
/// success; on failure returns false with a one-line diagnostic in `error`
/// (never throws). The shared flags:
///   --scenarios N  --masters N[,N,...]  --streams N
///   --u LO:HI:STEPS  --beta LO:HI:STEPS  --beta-lo X  --beta-hi X
///   --split w1,...,wK  --skew S
///   --policies LIST  --threads N  --seed N  --ttr TICKS  --method paper|refined
///   --csv FILE  --json FILE  --cache DIR  --metrics FILE  --progress
/// plus, when `simulable_only` (the simulate subcommand and the shard
/// simulate/combined modes), the simulator flags
///   --reps N  --horizon TICKS  --cycles X  --model worst|uniform|frame
///   --quantile Q  --lp  --combined
///   --faults k=v[,k=v...]   with keys
///     loss=P (token-loss probability), recovery=TICKS, corrupt=P (frame
///     corruption probability), retrans=N (retransmission cap), churn=P
///     (per-pass leave probability), offline=TICKS, burst=C (release
///     correlation in [0,1])
/// and `extra`, the calling subcommand's own flags.
/// `simulable_only` also keeps --policies to the AP-queue policies the
/// simulator implements (fcfs,dm,edf); without it every analysis policy is
/// accepted (fcfs,dm,edf,opa,token,holistic) and the simulator flags are
/// rejected by name, so an analysis sweep's spec never carries a sim half.
/// Fault knobs feed SimOptions::faults (see profibus/fault_model.hpp);
/// `--faults loss=0,...` with every knob at zero is exactly the flag's
/// absence — outputs stay byte-identical to a fault-free invocation.
/// The u × beta × masters grid is expanded by expand_cli_grid, and the
/// output destinations are validated before anything runs.
[[nodiscard]] bool parse_sim_sweep_args(const std::vector<std::string>& args, SimSweepCli& out,
                                        std::string& error, bool simulable_only = true,
                                        const std::vector<CliFlag>& extra = {});

}  // namespace profisched::engine
