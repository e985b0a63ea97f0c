#include "dist/dist_cli.hpp"

#include "opt/opt_cli.hpp"

namespace profisched::dist {

namespace {

bool parse_mode(const std::string& v, SweepMode& out) {
  if (v == "sweep") out = SweepMode::Analysis;
  else if (v == "simulate") out = SweepMode::Sim;
  else if (v == "combined") out = SweepMode::Combined;
  else if (v == "optimize") out = SweepMode::Optimize;
  else return false;
  return true;
}

constexpr const char* kModeError = "--mode needs sweep|simulate|combined|optimize";

}  // namespace

bool parse_shard_args(const std::vector<std::string>& args, ShardCli& out, std::string& error) {
  ShardCli cli;
  bool have_shard = false;
  const auto fail = [&](const std::string& msg) {
    error = msg;
    return false;
  };

  // --mode picks the flag table the rest is parsed with (simulator flags,
  // policy names, search brackets), so it is read first, wherever it sits.
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == "--mode" && !parse_mode(args[i + 1], cli.shard.mode)) return fail(kModeError);
  }
  const std::vector<engine::CliFlag> shard_flags = {
      {"--mode",
       [](const std::string& v, std::string& e) {
         SweepMode mode = SweepMode::Analysis;
         if (parse_mode(v, mode)) return true;
         e = kModeError;
         return false;
       }},
      {"--shard",
       [&](const std::string& v, std::string& e) {
         const std::size_t slash = v.find('/');
         std::size_t k = 0, count = 0;
         if (slash == std::string::npos ||
             !engine::parse_cli_count(v.substr(0, slash), k, 1'000'000) ||
             !engine::parse_cli_count(v.substr(slash + 1), count, 1'000'000) || k == 0 ||
             count == 0 || k > count) {
           e = "--shard needs k/K with 1 <= k <= K";
           return false;
         }
         cli.index = k - 1;  // CLI is 1-based, the plan is 0-based
         cli.count = count;
         have_shard = true;
         return true;
       }},
      {"--out",
       [&](const std::string& v, std::string& e) {
         cli.out_path = v;
         if (!v.empty()) return true;
         e = "--out needs a file path";
         return false;
       }},
  };

  // Every other flag goes through the table `sweep`/`simulate`/`optimize`
  // parse with, so a shard describes its sweep exactly as the single-process
  // run would — the byte-identity of merged output depends on it.
  if (cli.shard.mode == SweepMode::Optimize) {
    opt::OptimizeCli opt_cli;
    if (!opt::parse_optimize_args(args, opt_cli, error, shard_flags)) return false;
    cli.shard.spec.sweep = std::move(opt_cli.spec.sweep);
    cli.shard.optimize = opt_cli.spec.options;
    static_cast<engine::SweepRunFlags&>(cli) = std::move(opt_cli);
  } else {
    engine::SimSweepCli sweep_cli;
    if (!engine::parse_sim_sweep_args(args, sweep_cli, error,
                                      /*simulable_only=*/cli.shard.mode != SweepMode::Analysis,
                                      shard_flags)) {
      return false;
    }
    if (sweep_cli.combined) return fail("use --mode combined instead of --combined");
    cli.shard.spec = std::move(sweep_cli.spec);
    static_cast<engine::SweepRunFlags&>(cli) = std::move(sweep_cli);
  }
  if (!cli.csv_path.empty() || !cli.json_path.empty()) {
    return fail("shard emits one artifact via --out; merge the artifacts to get CSV/JSON");
  }
  if (!have_shard) return fail("--shard k/K is required");
  if (cli.out_path.empty()) return fail("--out FILE is required");
  // --cache/--metrics went through the shared table's up-front checks;
  // --out is shard's own flag, so it gets the same treatment here.
  if (!engine::validate_cli_output_file(cli.out_path, "--out", error)) return false;
  out = std::move(cli);
  error.clear();
  return true;
}

bool parse_merge_args(const std::vector<std::string>& args, MergeCli& out, std::string& error) {
  MergeCli cli;
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
    if (arg == "--csv") {
      if (!next(v) || v.empty()) return fail("--csv needs a file path");
      cli.csv_path = v;
    } else if (arg == "--json") {
      if (!next(v) || v.empty()) return fail("--json needs a file path");
      cli.json_path = v;
    } else if (arg == "--metrics") {
      if (!next(v) || v.empty()) return fail("--metrics needs a file path");
      cli.metrics_path = v;
    } else if (arg.rfind("--", 0) == 0) {
      return fail("unknown merge flag '" + arg + "'");
    } else {
      cli.inputs.push_back(arg);
    }
  }
  if (cli.inputs.empty()) return fail("merge needs at least one shard artifact file");
  if (!cli.csv_path.empty() &&
      !engine::validate_cli_output_file(cli.csv_path, "--csv", error)) {
    return false;
  }
  if (!cli.json_path.empty() &&
      !engine::validate_cli_output_file(cli.json_path, "--json", error)) {
    return false;
  }
  if (!cli.metrics_path.empty() &&
      !engine::validate_cli_output_file(cli.metrics_path, "--metrics", error)) {
    return false;
  }
  out = std::move(cli);
  error.clear();
  return true;
}

}  // namespace profisched::dist
