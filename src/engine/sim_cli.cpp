#include "engine/sim_cli.hpp"

#include <algorithm>
#include <array>
#include <exception>

namespace profisched::engine {

namespace {

// `--faults key=val[,key=val...]` — the single-flag surface for the whole
// FaultModel, so shell quoting stays trivial and shard specs can forward the
// verbatim string. Validation (probability ranges, sign) is deferred to
// FaultModel::validate() so the CLI and the library reject identically.
bool parse_cli_faults(const std::string& v, profibus::FaultModel& out, std::string& error) {
  const auto fail = [&](const std::string& msg) {
    error = "--faults: " + msg;
    return false;
  };
  std::size_t pos = 0;
  while (pos < v.size()) {
    const std::size_t comma = v.find(',', pos);
    const std::string item = v.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? v.size() : comma + 1;
    // A comma with nothing after it would otherwise fall out of the loop
    // silently; treat it as the empty entry it is.
    if (comma != std::string::npos && pos >= v.size()) {
      return fail("expected key=value, got ''");
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      return fail("expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    double d = 0.0;
    std::size_t count = 0;
    if (key == "loss") {
      if (!parse_cli_nonneg_double(val, d)) return fail("loss needs a probability in [0, 1]");
      out.token_loss_prob = d;
    } else if (key == "recovery") {
      if (!parse_cli_count(val, count, 1'000'000'000'000ULL)) {
        return fail("recovery needs a tick count");
      }
      out.token_recovery = static_cast<Ticks>(count);
    } else if (key == "corrupt") {
      if (!parse_cli_nonneg_double(val, d)) return fail("corrupt needs a probability in [0, 1]");
      out.corruption_prob = d;
    } else if (key == "retrans") {
      if (!parse_cli_count(val, count, 1'000)) return fail("retrans needs an integer in [0, 1000]");
      out.max_retransmissions = static_cast<int>(count);
    } else if (key == "churn") {
      if (!parse_cli_nonneg_double(val, d)) return fail("churn needs a probability in [0, 1]");
      out.churn_prob = d;
    } else if (key == "offline") {
      if (!parse_cli_count(val, count, 1'000'000'000'000ULL)) {
        return fail("offline needs a tick count");
      }
      out.churn_offline = static_cast<Ticks>(count);
    } else if (key == "burst") {
      if (!parse_cli_nonneg_double(val, d)) return fail("burst needs a correlation in [0, 1]");
      out.burst_correlation = d;
    } else {
      return fail("unknown key '" + key +
                  "' (expected loss, recovery, corrupt, retrans, churn, offline, burst)");
    }
  }
  try {
    out.validate();
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  return true;
}

/// Flags that only configure the simulator: an analysis sweep rejects them
/// by name rather than carrying a sim half no run reads.
constexpr std::array<std::string_view, 8> kSimulatorFlags = {
    "--reps", "--horizon", "--cycles", "--model", "--quantile", "--faults", "--lp", "--combined"};

}  // namespace

bool parse_sim_sweep_args(const std::vector<std::string>& args, SimSweepCli& out,
                          std::string& error, bool simulable_only,
                          const std::vector<CliFlag>& extra) {
  SimSweepCli cli;
  cli.spec.sweep.base.n_masters = 1;
  cli.spec.sweep.base.streams_per_master = 5;
  cli.spec.sweep.base.ttr = 3'000;
  cli.spec.sweep.scenarios_per_point = 100;
  cli.spec.sweep.policies = {Policy::Fcfs, Policy::Dm, Policy::Edf};
  GridCliArgs grid;

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
    if (!simulable_only &&
        std::find(kSimulatorFlags.begin(), kSimulatorFlags.end(), arg) != kSimulatorFlags.end()) {
      return fail(arg + " configures the simulator, which this subcommand does not run");
    }
    if (arg == "--scenarios") {
      if (!next(v) || !parse_cli_count(v, cli.spec.sweep.scenarios_per_point, 100'000'000) ||
          cli.spec.sweep.scenarios_per_point == 0) {
        return fail("--scenarios needs an integer in [1, 1e8]");
      }
    } else if (arg == "--reps") {
      if (!next(v) || !parse_cli_count(v, cli.spec.replications, 10'000) ||
          cli.spec.replications == 0) {
        return fail("--reps needs an integer in [1, 10000]");
      }
    } else if (arg == "--masters") {
      if (!next(v) || v.empty()) {
        return fail("--masters needs a comma list of integers in [1, 4096]");
      }
      grid.masters = v;
    } else if (arg == "--split") {
      if (!next(v) || v.empty()) return fail("--split needs a comma list of weights");
      grid.split = v;
    } else if (arg == "--skew") {
      if (!next(v) || v.empty()) return fail("--skew needs a number >= 0");
      grid.skew = v;
    } else if (arg == "--streams") {
      if (!next(v) || !parse_cli_count(v, cli.spec.sweep.base.streams_per_master, 4'096) ||
          cli.spec.sweep.base.streams_per_master == 0) {
        return fail("--streams needs an integer in [1, 4096]");
      }
    } else if (arg == "--u") {
      if (!next(v) || v.empty()) {
        return fail("--u needs LO:HI:STEPS with numeric LO/HI and integer STEPS");
      }
      grid.u = v;
    } else if (arg == "--beta") {
      if (!next(v) || v.empty()) {
        return fail("--beta needs LO:HI:STEPS with numeric LO/HI and integer STEPS");
      }
      grid.beta = v;
    } else if (arg == "--beta-lo") {
      if (!next(v) || v.empty()) return fail("--beta-lo needs a number >= 0");
      grid.beta_lo = v;
    } else if (arg == "--beta-hi") {
      if (!next(v) || v.empty()) return fail("--beta-hi needs a number >= 0");
      grid.beta_hi = v;
    } else if (arg == "--policies") {
      if (!next(v) || !parse_cli_policies(v, simulable_only, cli.spec.sweep.policies)) {
        return fail(simulable_only
                        ? "--policies needs a comma list drawn from fcfs,dm,edf (no duplicates)"
                        : "--policies needs a comma list drawn from fcfs,dm,edf,opa,token,"
                          "holistic (no duplicates)");
      }
    } else if (arg == "--threads") {
      if (!next(v) || !parse_cli_count(v, count, 1'024)) {
        return fail("--threads needs an integer in [0, 1024]");
      }
      cli.threads = static_cast<unsigned>(count);
    } else if (arg == "--seed") {
      if (!next(v) || !parse_cli_count(v, count)) return fail("--seed needs a non-negative integer");
      cli.spec.sweep.seed = count;
    } else if (arg == "--ttr") {
      if (!next(v) || !parse_cli_count(v, count, 1'000'000'000'000'000ULL)) {
        return fail("--ttr needs a tick count");
      }
      cli.spec.sweep.base.ttr = static_cast<Ticks>(count);
    } else if (arg == "--method") {
      if (!next(v) || (v != "paper" && v != "refined")) return fail("--method needs paper|refined");
      cli.spec.sweep.engine.method = v == "paper" ? profibus::TcycleMethod::PaperEq13
                                                  : profibus::TcycleMethod::PerMasterRefined;
    } else if (arg == "--horizon") {
      if (!next(v) || !parse_cli_count(v, count, 1'000'000'000'000ULL) || count == 0) {
        return fail("--horizon needs a tick count >= 1");
      }
      cli.spec.sim.horizon = static_cast<Ticks>(count);
    } else if (arg == "--cycles") {
      double cycles = 0.0;
      if (!next(v) || !parse_cli_nonneg_double(v, cycles) || cycles <= 0) {
        return fail("--cycles needs a number > 0");
      }
      cli.spec.sim.horizon_cycles = cycles;
    } else if (arg == "--model") {
      if (!next(v)) return fail("--model needs worst|uniform|frame");
      if (v == "worst") {
        cli.spec.sim.cycle_model.kind = sim::CycleModel::Kind::WorstCase;
      } else if (v == "uniform") {
        cli.spec.sim.cycle_model.kind = sim::CycleModel::Kind::UniformFraction;
      } else if (v == "frame") {
        cli.spec.sim.cycle_model.kind = sim::CycleModel::Kind::FrameLevel;
      } else {
        return fail("--model needs worst|uniform|frame");
      }
    } else if (arg == "--quantile") {
      double q = 0.0;
      if (!next(v) || !parse_cli_nonneg_double(v, q) || !(q > 0.0 && q <= 1.0)) {
        return fail("--quantile needs a percentile in (0, 1]");
      }
      cli.spec.sim.quantile = q;
    } else if (arg == "--faults") {
      if (!next(v) || v.empty()) {
        return fail("--faults needs key=value[,key=value...] (keys: loss, recovery, corrupt, "
                    "retrans, churn, offline, burst)");
      }
      if (!parse_cli_faults(v, cli.spec.sim.faults, error)) return false;
    } else if (arg == "--lp") {
      cli.spec.sim.lp_traffic = true;
    } else if (arg == "--combined") {
      cli.combined = true;
    } else if (arg == "--csv") {
      if (!next(v) || v.empty()) return fail("--csv needs a file path");
      cli.csv_path = v;
    } else if (arg == "--json") {
      if (!next(v) || v.empty()) return fail("--json needs a file path");
      cli.json_path = v;
    } else if (arg == "--cache") {
      if (!next(v) || v.empty()) return fail("--cache needs a directory path");
      cli.cache_dir = v;
    } else if (arg == "--metrics") {
      if (!next(v) || v.empty()) return fail("--metrics needs a file path");
      cli.metrics_path = v;
    } else if (arg == "--progress") {
      cli.progress = true;
    } else if (const auto flag = std::find_if(extra.begin(), extra.end(),
                                              [&](const CliFlag& f) { return f.name == arg; });
               flag != extra.end()) {
      (void)next(v);
      if (!flag->apply(v, error)) return false;
    } else {
      return fail("unknown flag '" + arg + "'");
    }
  }

  if (!expand_cli_grid(grid, cli.spec.sweep.base, cli.spec.sweep.points, error)) {
    return false;
  }
  if (cli.spec.sweep.total_scenarios() > 100'000'000) {
    return fail("sweep too large (" + std::to_string(cli.spec.sweep.total_scenarios()) +
                " scenarios); shrink the grid axes or --scenarios");
  }
  // Output destinations are checked here, before any scenario runs: a typo'd
  // directory must not cost the whole sweep.
  if (!cli.csv_path.empty() && !validate_cli_output_file(cli.csv_path, "--csv", error)) {
    return false;
  }
  if (!cli.json_path.empty() && !validate_cli_output_file(cli.json_path, "--json", error)) {
    return false;
  }
  if (!cli.metrics_path.empty() &&
      !validate_cli_output_file(cli.metrics_path, "--metrics", error)) {
    return false;
  }
  if (!cli.cache_dir.empty() && !validate_cli_output_dir(cli.cache_dir, "--cache", error)) {
    return false;
  }
  out = std::move(cli);
  error.clear();
  return true;
}

}  // namespace profisched::engine
