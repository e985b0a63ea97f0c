// opt_cli.hpp — argument parsing for the `profisched optimize` subcommand,
// in the library (rather than the CLI translation unit) so the validation is
// unit-testable: tests/opt/test_opt_cli.cpp feeds it the same argv slices
// the tool does. Only the search brackets are optimize's own; every other
// flag goes through the shared grid table in engine/sim_cli.hpp.
#pragma once

#include <string>
#include <vector>

#include "engine/sim_cli.hpp"
#include "opt/optimizer.hpp"

namespace profisched::opt {

/// Everything `profisched optimize` needs: the spec plus the run flags.
struct OptimizeCli : engine::SweepRunFlags {
  OptimizeSpec spec;
};

/// Parse the flags after `profisched optimize` into `out`. Returns true on
/// success; on failure returns false with a one-line diagnostic in `error`
/// (never throws). Accepted flags: the shared analysis grid table of
/// engine::parse_sim_sweep_args (simulator flags rejected), with --policies
/// restricted to the optimizable fcfs,dm,edf,opa, plus the search brackets
///   --scale-lo X  --scale-hi X     frame-scaling bracket (factors, e.g. 0.25)
///   --ttr-cap TICKS                upper bracket of the max-T_TR search
///   --dratio-lo X  --dratio-hi X   D/T-ratio bracket
/// and `extra` (the shard subcommand's own flags).
/// Fractional bracket flags are rounded to the q/1024 fixed point the
/// searches run in; bracket sanity (1 <= lo <= hi after rounding) is checked
/// here so run_optimize never throws on CLI-built specs.
[[nodiscard]] bool parse_optimize_args(const std::vector<std::string>& args, OptimizeCli& out,
                                       std::string& error,
                                       const std::vector<engine::CliFlag>& extra = {});

}  // namespace profisched::opt
