#include "opt/opt_cli.hpp"

#include <cmath>

namespace profisched::opt {

namespace {

// Fractional CLI bracket → q/1024 fixed point (nearest). parse_optimize_args
// re-checks the 1 <= lo <= hi invariant after rounding, so a sub-1/2048
// factor fails loudly instead of collapsing to 0.
bool parse_cli_q1024(const std::string& s, Ticks& out) {
  double x = 0.0;
  if (!engine::parse_cli_nonneg_double(s, x) || x <= 0.0 || x > 1e12) return false;
  out = static_cast<Ticks>(std::llround(x * sensitivity::kScaleOne));
  return out >= 1;
}

engine::CliFlag bracket_flag(std::string_view name, Ticks& q, const char* diagnostic) {
  return {name, [&q, diagnostic](const std::string& v, std::string& error) {
            if (parse_cli_q1024(v, q)) return true;
            error = diagnostic;
            return false;
          }};
}

}  // namespace

bool parse_optimize_args(const std::vector<std::string>& args, OptimizeCli& out,
                         std::string& error, const std::vector<engine::CliFlag>& extra) {
  OptimizeCli cli;
  OptimizeOptions& o = cli.spec.options;
  std::vector<engine::CliFlag> flags = {
      bracket_flag("--scale-lo", o.scale_lo_q, "--scale-lo needs a factor >= 1/1024"),
      bracket_flag("--scale-hi", o.scale_hi_q, "--scale-hi needs a factor >= 1/1024"),
      bracket_flag("--dratio-lo", o.dratio_lo_q, "--dratio-lo needs a ratio >= 1/1024"),
      bracket_flag("--dratio-hi", o.dratio_hi_q, "--dratio-hi needs a ratio >= 1/1024"),
      {"--ttr-cap",
       [&o](const std::string& v, std::string& e) {
         std::size_t count = 0;
         if (!engine::parse_cli_count(v, count, 1'000'000'000'000'000ULL) || count == 0) {
           e = "--ttr-cap needs a tick count >= 1";
           return false;
         }
         o.ttr_cap = static_cast<Ticks>(count);
         return true;
       }},
  };
  flags.insert(flags.end(), extra.begin(), extra.end());

  const auto fail = [&](const std::string& msg) {
    error = msg;
    return false;
  };
  engine::SimSweepCli grid;
  if (!engine::parse_sim_sweep_args(args, grid, error, /*simulable_only=*/false, flags)) {
    return false;
  }
  for (const engine::Policy p : grid.spec.sweep.policies) {
    if (!optimizable(p)) {
      return fail(std::string("--policies: ") + std::string(engine::to_string(p)) +
                  " has no per-policy verdict to optimize against");
    }
  }
  if (o.scale_lo_q > o.scale_hi_q) return fail("--scale-lo must not exceed --scale-hi");
  if (o.dratio_lo_q > o.dratio_hi_q) return fail("--dratio-lo must not exceed --dratio-hi");

  cli.spec.sweep = std::move(grid.spec.sweep);
  static_cast<engine::SweepRunFlags&>(cli) = std::move(grid);
  out = std::move(cli);
  error.clear();
  return true;
}

}  // namespace profisched::opt
