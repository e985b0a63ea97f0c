// profisched — command-line front end: analyze, simulate, or tune one network
// described in an INI file (format: src/config/network_loader.hpp; examples
// under configs/), or sweep many generated ones.
//
//   profisched analyze  <file> [--policy fcfs|dm|edf|opa|all]
//   profisched simulate <file> [--policy fcfs|dm|edf] [--ms N] [--seed N]
//                              [--histograms] [--trace N]
//   profisched ttr      <file>
//   profisched sweep    [GRID] [--policies fcfs,dm,edf,opa,token,holistic]
//   profisched simulate [GRID] [--policies fcfs,dm,edf] [SIM]
//     (no INI file: fan simulation runs over UUniFast-generated scenarios;
//      --combined also analyses each scenario and emits joined rows. --faults
//      injects token loss / frame corruption / ring churn / release bursts;
//      combined runs then check the simulation against degraded-mode bounds.)
//   profisched optimize [GRID] [--policies fcfs,dm,edf,opa]
//                       [--scale-lo X] [--scale-hi X] [--ttr-cap TICKS]
//                       [--dratio-lo X] [--dratio-hi X]
//     (per scenario and policy, bisect the exact breakdown utilization, the
//      largest schedulable T_TR, and the smallest sustainable D/T ratio;
//      emits per-point distribution quantiles)
//   profisched shard    --shard k/K --out FILE
//                       [--mode sweep|simulate|combined|optimize]
//                       [the mode's subcommand flags, except --csv/--json]
//     (runs shard k's contiguous slice of the sweep's N scenario ids —
//      near-equal slices, the first N mod K shards one scenario larger
//      (dist::ShardPlan::split) — and writes one artifact; K artifacts
//      merge into the single-process result)
//   profisched merge    [--csv FILE] [--json FILE] [--metrics FILE] SHARD_FILE...
//     (validates that the artifacts tile the sweep exactly and emits output
//      byte-identical to the equivalent single-process run)
//
// GRID, the flag table every sweep-style subcommand shares
// (engine/sim_cli.hpp):
//   [--scenarios N] [--masters N[,N,...]] [--streams N] [--u LO:HI:STEPS]
//   [--beta LO:HI:STEPS] [--beta-lo X] [--beta-hi X] [--split w1,...,wK]
//   [--skew S] [--threads N] [--seed N] [--ttr TICKS] [--method paper|refined]
//   [--csv FILE] [--json FILE] [--cache DIR] [--metrics FILE] [--progress]
//   (--u / --beta / --masters each expand to an axis; the sweep runs their
//    full cross product. --split/--skew shape the per-master load division.
//    --metrics writes a versioned metrics + run-manifest JSON sidecar, see
//    obs/manifest.hpp; --progress is an opt-in stderr heartbeat. Both are
//    strictly out-of-band: the CSV/JSON/artifact bytes are identical with or
//    without them.)
// SIM, the simulator flags only `simulate` and the simulate/combined shard
// modes accept:
//   [--reps N] [--horizon TICKS] [--cycles X] [--model worst|uniform|frame]
//   [--quantile Q] [--lp] [--combined]
//   [--faults loss=P,recovery=T,corrupt=P,retrans=N,churn=P,offline=T,burst=C]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "config/network_cli.hpp"
#include "config/network_loader.hpp"
#include "dist/dist_cli.hpp"
#include "dist/result_cache.hpp"
#include "dist/shard.hpp"
#include "engine/aggregate.hpp"
#include "engine/detail/hash.hpp"
#include "engine/sim_aggregate.hpp"
#include "engine/sim_cli.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "opt/opt_aggregate.hpp"
#include "opt/opt_cli.hpp"
#include "profibus/dispatching.hpp"
#include "profibus/priority_assignment.hpp"
#include "profibus/ttr_setting.hpp"
#include "sim/network_sim.hpp"

namespace {

using namespace profisched;
using namespace profisched::profibus;
using config::LoadedNetwork;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  profisched analyze  <file.ini> [--policy fcfs|dm|edf|opa|all]\n"
               "  profisched simulate <file.ini> [--policy fcfs|dm|edf] [--ms N]\n"
               "                      [--seed N] [--histograms] [--trace N]\n"
               "  profisched ttr      <file.ini>\n"
               "  profisched sweep    [GRID] [--policies fcfs,dm,edf,opa,token,holistic]\n"
               "  profisched simulate [GRID] [--policies fcfs,dm,edf] [SIM]\n"
               "  profisched optimize [GRID] [--policies fcfs,dm,edf,opa]\n"
               "                      [--scale-lo X] [--scale-hi X] [--ttr-cap TICKS]\n"
               "                      [--dratio-lo X] [--dratio-hi X]\n"
               "  profisched shard    --shard k/K --out FILE\n"
               "                      [--mode sweep|simulate|combined|optimize]\n"
               "                      [the mode's subcommand flags, except --csv/--json]\n"
               "  profisched merge    [--csv FILE] [--json FILE] [--metrics FILE]\n"
               "                      SHARD_FILE...\n"
               "GRID:\n"
               "  [--scenarios N] [--masters N[,N,...]] [--streams N] [--u LO:HI:STEPS]\n"
               "  [--beta LO:HI:STEPS] [--beta-lo X] [--beta-hi X] [--split w1,...,wK]\n"
               "  [--skew S] [--threads N] [--seed N] [--ttr TICKS] [--method paper|refined]\n"
               "  [--csv FILE] [--json FILE] [--cache DIR] [--metrics FILE] [--progress]\n"
               "SIM:\n"
               "  [--reps N] [--horizon TICKS] [--cycles X] [--model worst|uniform|frame]\n"
               "  [--quantile Q] [--lp] [--combined]\n"
               "  [--faults loss=P,recovery=T,corrupt=P,retrans=N,churn=P,offline=T,burst=C]\n");
  return 2;
}

double to_ms(Ticks v, Ticks ticks_per_ms) {
  return static_cast<double>(v) / static_cast<double>(ticks_per_ms);
}

void print_analysis(const LoadedNetwork& ln, const NetworkAnalysis& a, const char* label) {
  std::printf("\n%s: %s (T_cycle = %.3f ms)\n", label, a.schedulable ? "SCHEDULABLE" : "NOT schedulable",
              to_ms(a.tcycle, ln.ticks_per_ms));
  for (std::size_t k = 0; k < ln.net.n_masters(); ++k) {
    std::printf("  [%s]\n", ln.net.masters[k].name.c_str());
    for (std::size_t i = 0; i < ln.net.masters[k].nh(); ++i) {
      const auto& s = ln.net.masters[k].high_streams[i];
      const auto& r = a.masters[k].streams[i];
      if (r.response == kNoBound) {
        std::printf("    %-24s D=%8.2f ms  R=unbounded  MISS\n", s.name.c_str(),
                    to_ms(s.D, ln.ticks_per_ms));
      } else {
        std::printf("    %-24s D=%8.2f ms  R=%8.2f ms  %s\n", s.name.c_str(),
                    to_ms(s.D, ln.ticks_per_ms), to_ms(r.response, ln.ticks_per_ms),
                    r.meets_deadline ? "ok" : "MISS");
      }
    }
  }
}

int cmd_analyze(const LoadedNetwork& ln, const std::string& policy) {
  bool any = false;
  int rc = 0;
  const auto run = [&](ApPolicy p) {
    const NetworkAnalysis a = analyze_network(ln.net, p);
    print_analysis(ln, a, std::string(to_string(p)).c_str());
    if (!a.schedulable) rc = 1;
    any = true;
  };
  if (policy == "fcfs" || policy == "all") run(ApPolicy::Fcfs);
  if (policy == "dm" || policy == "all") run(ApPolicy::Dm);
  if (policy == "edf" || policy == "all") run(ApPolicy::Edf);
  if (policy == "opa" || policy == "all") {
    const auto orders = audsley_stream_orders(ln.net);
    if (orders.has_value()) {
      print_analysis(ln, analyze_fixed_priority(ln.net, *orders), "OPA");
      std::printf("  OPA priority order (highest first):\n");
      for (std::size_t k = 0; k < ln.net.n_masters(); ++k) {
        std::printf("    [%s]:", ln.net.masters[k].name.c_str());
        for (const std::size_t i : (*orders)[k]) {
          std::printf(" %s", ln.net.masters[k].high_streams[i].name.c_str());
        }
        std::printf("\n");
      }
    } else {
      std::printf("\nOPA: no fixed priority order schedules this set\n");
      rc = 1;
    }
    any = true;
  }
  if (!any) return usage();
  return rc;
}

int cmd_simulate(const LoadedNetwork& ln, const config::NetworkCli& cli) {
  sim::SimConfig cfg;
  cfg.net = ln.net;
  std::string error;
  if (!cli.horizon(ln.ticks_per_ms, cfg.horizon, error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  cfg.seed = cli.seed;
  cfg.collect_histograms = cli.histograms;
  const std::string policy = cli.policy.empty() ? "fcfs" : cli.policy;
  if (policy == "dm") cfg.policy = ApPolicy::Dm;
  else if (policy == "edf") cfg.policy = ApPolicy::Edf;
  else if (policy == "fcfs") cfg.policy = ApPolicy::Fcfs;
  else return usage();

  sim::Trace trace(cli.trace_events == 0 ? 1 : cli.trace_events);
  if (cli.trace_events > 0) cfg.trace = &trace;

  const sim::SimReport r = sim::simulate(cfg);
  std::printf("simulated %lld ms under %s (seed %llu): %llu events, %llu LP cycles\n",
              static_cast<long long>(cli.milliseconds), policy.c_str(),
              static_cast<unsigned long long>(cli.seed), static_cast<unsigned long long>(r.events),
              static_cast<unsigned long long>(r.lp_cycles_completed));
  for (std::size_t k = 0; k < ln.net.n_masters(); ++k) {
    std::printf("[%s] token visits=%llu max TRR=%.3f ms overruns=%llu late=%llu\n",
                ln.net.masters[k].name.c_str(),
                static_cast<unsigned long long>(r.token[k].visits),
                to_ms(r.token[k].max_trr, ln.ticks_per_ms),
                static_cast<unsigned long long>(r.token[k].tth_overruns),
                static_cast<unsigned long long>(r.token[k].late_tokens));
    for (std::size_t i = 0; i < ln.net.masters[k].nh(); ++i) {
      const auto& s = r.hp[k][i];
      std::printf("  %-24s n=%llu max=%.3f ms mean=%.3f ms misses=%llu dropped=%llu\n",
                  ln.net.masters[k].high_streams[i].name.c_str(),
                  static_cast<unsigned long long>(s.completed),
                  to_ms(s.max_response, ln.ticks_per_ms),
                  s.mean_response() / static_cast<double>(ln.ticks_per_ms),
                  static_cast<unsigned long long>(s.deadline_misses),
                  static_cast<unsigned long long>(s.dropped));
      if (cli.histograms) {
        std::printf("    hist: %s\n", r.response_hist[k][i].summary().c_str());
      }
    }
  }
  if (cli.trace_events > 0) {
    std::printf("\n--- first %zu trace events ---\n%s", trace.events().size(),
                trace.render().c_str());
  }
  return 0;
}

int cmd_ttr(const LoadedNetwork& ln) {
  const TtrRange range = ttr_range_fcfs(ln.net);
  std::printf("T_del = %.3f ms; current T_TR = %.3f ms%s\n",
              to_ms(t_del(ln.net), ln.ticks_per_ms), to_ms(ln.net.ttr, ln.ticks_per_ms),
              ln.ttr_auto ? " (auto, eq. 15)" : "");
  if (range.feasible()) {
    std::printf("eq. 15 feasible T_TR range: [%.3f, %.3f] ms ([%lld, %lld] ticks)\n",
                to_ms(range.min, ln.ticks_per_ms), to_ms(range.max, ln.ticks_per_ms),
                static_cast<long long>(range.min), static_cast<long long>(range.max));
    return 0;
  }
  std::printf("no T_TR makes the FCFS analysis schedulable (try --policy dm/edf)\n");
  return 1;
}

/// `analyze|simulate|ttr <file.ini> [flags]`: one network from an INI file.
int cmd_network(const std::string& command, const std::string& path,
                const std::vector<std::string>& flags) {
  config::NetworkCli cli;
  std::string error;
  if (!config::parse_network_args(flags, cli, error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage();
  }
  const LoadedNetwork ln = config::load_network_file(path);
  std::printf("loaded %s: %zu masters, %zu streams, T_TR = %lld ticks\n", path.c_str(),
              ln.net.n_masters(), ln.net.total_high_streams(), static_cast<long long>(ln.net.ttr));
  if (command == "analyze") return cmd_analyze(ln, cli.policy.empty() ? "all" : cli.policy);
  if (command == "simulate") return cmd_simulate(ln, cli);
  if (command == "ttr") return cmd_ttr(ln);
  return usage();
}

// ---------------------------------------------------------------------------
// The sweep-style subcommands (sweep, simulate, optimize, shard, merge): one
// driver takes each from parsed flags through run → aggregate → print →
// write → manifest.

/// One sweep-style invocation after its flags parse.
struct Job : engine::SweepRunFlags {
  const char* subcommand = "";
  std::vector<std::string> argv;  ///< the subcommand's flags, for the manifest
  dist::ShardSpec spec;
};

/// The sequential top-level command stages. These are the only `phase.*`
/// series, so their totals sum to at most the command's wall time — the
/// invariant tools/metrics_check.py enforces on every --metrics sidecar.
struct PhaseMetrics {
  obs::Timer run = obs::Registry::global().timer("phase.run");
  obs::Timer aggregate = obs::Registry::global().timer("phase.aggregate");
  obs::Timer write = obs::Registry::global().timer("phase.write");
};

PhaseMetrics& phase_metrics() {
  static PhaseMetrics m;
  return m;
}

/// Arms the telemetry switches right after a subcommand's flags parse:
/// --metrics turns on the timed instrumentation (Span clock reads, task
/// latency), --progress the stderr heartbeat. Returns the wall-clock start
/// for the manifest's elapsed_s (taken only when a sidecar was requested, so
/// a flags-off run stays clock-read-free).
std::int64_t arm_observability(const std::string& metrics_path, bool progress) {
  obs::set_enabled(!metrics_path.empty());
  obs::set_progress_enabled(progress);
  return metrics_path.empty() ? -1 : obs::now_ns();
}

std::unique_ptr<dist::ResultCache> open_cache(const std::string& dir) {
  return dir.empty() ? nullptr : std::make_unique<dist::ResultCache>(dir);
}

/// The one cache summary the CLI prints, fed from the registry's record-
/// level counters — the same `cache.*` series the --metrics sidecar carries,
/// so the console line and the sidecar can never disagree (unlike the
/// ResultCache's raw load statistics, they count an undecodable or
/// mismatched entry as the recompute it was).
void print_cache_line(const dist::ResultCache& cache) {
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  std::printf("result cache: %llu hits / %llu misses (%s)\n",
              static_cast<unsigned long long>(snap.counter("cache.hits")),
              static_cast<unsigned long long>(snap.counter("cache.misses")),
              cache.dir().c_str());
}

bool write_output_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary);
  os << content;
  os.flush();  // surface ENOSPC-style errors now, not in the destructor
  if (os.good()) return true;
  std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return false;
}

/// Builds and writes the --metrics sidecar. The config digest hashes the
/// same canonical spec block `merge` compares byte-for-byte, so identical
/// sweeps digest identically whether run whole, sharded, or merged.
bool emit_manifest(const Job& job, const dist::ShardSpec& spec, std::uint64_t scenarios,
                   unsigned threads, std::int64_t t0_ns) {
  obs::Manifest m;
  m.run.subcommand = job.subcommand;
  m.run.argv = job.argv;
  const std::string spec_text = dist::serialize_spec(spec);
  m.run.config_digest =
      engine::detail::Fnv1a64().bytes(spec_text.data(), spec_text.size()).digest();
  m.run.scenarios = scenarios;
  m.run.points = spec.spec.sweep.points.size();
  m.run.policies = spec.spec.sweep.policies.size();
  m.run.replications = spec.spec.replications;
  m.run.threads = threads;
  m.run.elapsed_s = static_cast<double>(obs::now_ns() - t0_ns) / 1e9;
  m.metrics = obs::Registry::global().snapshot();
  if (!obs::write_manifest_file(job.metrics_path, m)) {
    std::fprintf(stderr, "error: cannot write %s\n", job.metrics_path.c_str());
    return false;
  }
  std::printf("wrote %s\n", job.metrics_path.c_str());
  return true;
}

/// Banner text for the masters dimension: the axis values ("1,8") when the
/// points carry per-point ring sizes, else the single base count.
std::string masters_banner(const engine::SweepSpec& sweep) {
  std::string axis;
  std::size_t last = 0;
  for (const engine::SweepPoint& pt : sweep.points) {
    if (pt.n_masters != 0 && pt.n_masters != last) {
      if (!axis.empty()) axis += ',';
      axis += std::to_string(pt.n_masters);
      last = pt.n_masters;
    }
  }
  return axis.empty() ? std::to_string(sweep.base.n_masters) : axis;
}

/// The first stdout line of a whole-sweep run: what it runs, and how wide.
void print_banner(const Job& job, unsigned threads) {
  const engine::SweepSpec& sweep = job.spec.spec.sweep;
  std::string title = job.subcommand;
  std::string reps;
  if (job.spec.mode == dist::SweepMode::Sim || job.spec.mode == dist::SweepMode::Combined) {
    title = job.spec.mode == dist::SweepMode::Combined ? "simulate sweep (combined with analysis)"
                                                       : "simulate sweep";
    const std::size_t n = job.spec.spec.replications;
    reps = " x " + std::to_string(n) + (n == 1 ? " rep" : " reps");
  }
  std::printf("%s: %zu scenarios (%zu points x %zu)%s, %s masters x %zu streams, "
              "%u thread%s, seed %llu\n",
              title.c_str(), sweep.total_scenarios(), sweep.points.size(),
              sweep.scenarios_per_point, reps.c_str(), masters_banner(sweep).c_str(),
              sweep.base.streams_per_master, threads, threads == 1 ? "" : "s",
              static_cast<unsigned long long>(sweep.seed));
}

/// Per-point acceptance ratios, one column per policy (sweep and simulate).
template <class Curves>
void print_ratio_table(const Curves& curves) {
  std::printf("\n%-8s", "U");
  for (const std::string& p : curves.policies) std::printf(" %9s", p.c_str());
  std::printf("\n");
  for (const auto& pt : curves.points) {
    std::printf("%-8.3f", pt.total_u);
    for (std::size_t p = 0; p < curves.policies.size(); ++p) {
      std::printf(" %8.1f%%", 100.0 * pt.ratio(p));
    }
    std::printf("\n");
  }
}

/// Per-point analysis-accept vs simulation-miss-free ratios side by side,
/// bucketed in one pass over the outcomes (a per-point rescan would be
/// O(points x scenarios) — hours on the biggest accepted grids).
void print_combined_table(const engine::SimSweepSpec& spec, const engine::CombinedResult& result) {
  const std::size_t n_pol = spec.sweep.policies.size();
  const std::size_t n_pts = spec.sweep.points.size();
  std::vector<std::size_t> accepted(n_pts * n_pol, 0), miss_free(n_pts * n_pol, 0),
      scenarios(n_pts, 0);
  for (const engine::CombinedOutcome& o : result.outcomes) {
    ++scenarios[o.sim.point];
    for (std::size_t p = 0; p < n_pol; ++p) {
      if (o.analytic_schedulable[p]) ++accepted[o.sim.point * n_pol + p];
      if (o.sim.misses[p] == 0 && o.sim.dropped[p] == 0) ++miss_free[o.sim.point * n_pol + p];
    }
  }
  std::printf("\n%-8s", "U");
  for (const engine::Policy p : spec.sweep.policies) {
    std::printf(" %9s:an %9s:sim", std::string(to_string(p)).c_str(),
                std::string(to_string(p)).c_str());
  }
  std::printf("\n");
  for (std::size_t pt = 0; pt < n_pts; ++pt) {
    const double n = scenarios[pt] == 0 ? 1.0 : static_cast<double>(scenarios[pt]);
    std::printf("%-8.3f", spec.sweep.points[pt].total_u);
    for (std::size_t p = 0; p < n_pol; ++p) {
      std::printf(" %11.1f%% %12.1f%%", 100.0 * static_cast<double>(accepted[pt * n_pol + p]) / n,
                  100.0 * static_cast<double>(miss_free[pt * n_pol + p]) / n);
    }
    std::printf("\n");
  }
}

/// The back half of sweep, simulate, optimize and merge: reduce the result
/// to its table (the one mode → reducer dispatch), print the console
/// summary, write --csv/--json, then the --metrics manifest. A direct run
/// prints the per-point table and timing line; a merge (`direct` false) has
/// no timing to report and prints only the combined-mode verdict line.
int report(const Job& job, const dist::MergedSweep& r, bool direct,
           const dist::ResultCache* cache, unsigned threads, std::int64_t t0_ns) {
  const auto write = [](const std::string& path, const std::string& content) {
    if (!write_output_file(path, content)) return false;
    std::printf("wrote %s\n", path.c_str());
    return true;
  };
  // Serialize lazily: a multi-million-row combined merge should not pay for
  // (or hold in memory) a JSON string nobody asked for.
  const auto emit = [&](const auto& table, int rc) {
    if (cache) print_cache_line(*cache);
    obs::Span write_span(phase_metrics().write);
    if (!job.csv_path.empty() && !write(job.csv_path, table.to_csv())) return 1;
    if (!job.json_path.empty() && !write(job.json_path, table.to_json())) return 1;
    write_span.stop();
    if (!job.metrics_path.empty() &&
        !emit_manifest(job, r.spec, r.spec.total_scenarios(), threads, t0_ns)) {
      return 1;
    }
    return rc;
  };
  const engine::SimSweepSpec& spec = r.spec.spec;
  const double elapsed = r.stats().elapsed_s > 0 ? r.stats().elapsed_s : 1.0;
  obs::Span agg_span(phase_metrics().aggregate);
  switch (r.spec.mode) {
    case dist::SweepMode::Analysis: {
      const engine::SweepCurves curves = engine::aggregate(spec.sweep, r.analysis);
      agg_span.stop();
      if (direct) {
        print_ratio_table(curves);
        std::printf("\n%zu scenarios in %.3f s (%.0f scenario-analyses/s); timing memo: "
                    "%zu hits / %zu misses\n",
                    r.analysis.outcomes.size(), r.analysis.elapsed_s,
                    static_cast<double>(r.analysis.outcomes.size() * spec.sweep.policies.size()) /
                        elapsed,
                    r.analysis.memo_hits, r.analysis.memo_misses);
      }
      return emit(curves, 0);
    }
    case dist::SweepMode::Sim: {
      const engine::SimCurves curves = engine::aggregate_sim(spec, r.sim);
      agg_span.stop();
      if (direct) {
        print_ratio_table(curves);
        std::printf("\n%zu scenarios x %zu reps in %.3f s (%.0f sim-runs/s)\n",
                    r.sim.outcomes.size(), spec.replications, r.sim.elapsed_s,
                    static_cast<double>(r.sim.outcomes.size() * spec.sweep.policies.size() *
                                        spec.replications) /
                        elapsed);
      }
      return emit(curves, 0);
    }
    case dist::SweepMode::Combined: {
      const engine::ConsistencyTable table = engine::consistency_table(spec, r.combined);
      agg_span.stop();
      if (direct) {
        print_combined_table(spec, r.combined);
        double max_pessimism = 0.0;
        for (const engine::ConsistencyRow& row : table.rows) {
          max_pessimism = std::max(max_pessimism, row.pessimism());
        }
        std::printf("\n%zu joined rows in %.3f s; bound violations: %llu; "
                    "analysis-accepts-but-sim-misses: %zu; max pessimism %.3f\n",
                    table.rows.size(), r.combined.elapsed_s,
                    static_cast<unsigned long long>(table.total_bound_violations()),
                    table.accept_but_miss_count(), max_pessimism);
      } else {
        std::printf("bound violations: %llu; analysis-accepts-but-sim-misses: %zu\n",
                    static_cast<unsigned long long>(table.total_bound_violations()),
                    table.accept_but_miss_count());
      }
      // A consistency violation falsifies the corresponding analysis — make
      // the run fail loudly so CI catches it.
      return emit(table,
                  table.accept_but_miss_count() > 0 || table.total_bound_violations() > 0 ? 1 : 0);
    }
    case dist::SweepMode::Optimize: {
      const opt::OptimizeTable table =
          opt::aggregate_optimize(opt::OptimizeSpec{spec.sweep, r.spec.optimize}, r.optimize);
      agg_span.stop();
      if (direct) {
        // Median breakdown utilization per policy — the headline synthesis
        // answer; the full distributions go to --csv/--json.
        std::printf("\n%-8s", "U");
        for (const std::string& p : table.policies) std::printf(" %12s", (p + ":bu").c_str());
        std::printf("\n");
        for (const opt::OptimizePoint& pt : table.points) {
          std::printf("%-8.3f", pt.total_u);
          for (std::size_t p = 0; p < table.policies.size(); ++p) {
            std::printf(" %12.3f", pt.stats[p].breakdown_u_p50);
          }
          std::printf("\n");
        }
        std::printf("\n%zu scenarios x %zu policies in %.3f s (3 bisections each)\n",
                    r.optimize.outcomes.size(), spec.sweep.policies.size(),
                    r.optimize.elapsed_s);
      }
      return emit(table, 0);
    }
  }
  return 1;
}

/// `sweep`, `simulate` (no INI file) and `optimize`: the whole sweep in this
/// process.
int cmd_run(const std::string& command, const std::vector<std::string>& args) {
  Job job;
  job.argv = args;
  std::string error;
  bool ok = false;
  if (command == "optimize") {
    opt::OptimizeCli cli;
    ok = opt::parse_optimize_args(args, cli, error);
    job.subcommand = "optimize";
    job.spec.mode = dist::SweepMode::Optimize;
    job.spec.spec.sweep = std::move(cli.spec.sweep);
    job.spec.optimize = cli.spec.options;
    static_cast<engine::SweepRunFlags&>(job) = std::move(cli);
  } else {
    engine::SimSweepCli cli;
    ok = engine::parse_sim_sweep_args(args, cli, error, /*simulable_only=*/command == "simulate");
    job.subcommand = command == "sweep" ? "sweep" : "simulate";
    job.spec.mode = command == "sweep" ? dist::SweepMode::Analysis
                    : cli.combined     ? dist::SweepMode::Combined
                                       : dist::SweepMode::Sim;
    job.spec.spec = std::move(cli.spec);
    static_cast<engine::SweepRunFlags&>(job) = std::move(cli);
  }
  if (!ok) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage();
  }
  const std::int64_t t0_ns = arm_observability(job.metrics_path, job.progress);

  engine::SweepRunner runner(job.threads);
  print_banner(job, runner.threads());
  const std::unique_ptr<dist::ResultCache> cache = open_cache(job.cache_dir);
  obs::Span run_span(phase_metrics().run);
  const dist::MergedSweep result = dist::run_sweep(
      runner, job.spec, engine::IdRange{0, job.spec.total_scenarios()}, cache.get());
  run_span.stop();
  return report(job, result, /*direct=*/true, cache.get(), runner.threads(), t0_ns);
}

int cmd_shard(const std::vector<std::string>& args) {
  dist::ShardCli cli;
  std::string error;
  if (!dist::parse_shard_args(args, cli, error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage();
  }
  Job job;
  job.subcommand = "shard";
  job.argv = args;
  job.metrics_path = cli.metrics_path;
  const std::int64_t t0_ns = arm_observability(cli.metrics_path, cli.progress);

  dist::ShardRunner runner(cli.threads);
  const std::unique_ptr<dist::ResultCache> cache = open_cache(cli.cache_dir);
  std::printf("shard %llu/%llu (%s mode): %llu scenarios total, %u thread%s, seed %llu\n",
              static_cast<unsigned long long>(cli.index + 1),
              static_cast<unsigned long long>(cli.count),
              std::string(dist::to_string(cli.shard.mode)).c_str(),
              static_cast<unsigned long long>(cli.shard.total_scenarios()), runner.threads(),
              runner.threads() == 1 ? "" : "s",
              static_cast<unsigned long long>(cli.shard.spec.sweep.seed));

  obs::Span run_span(phase_metrics().run);
  const dist::ShardArtifact artifact = runner.run(cli.shard, cli.index, cli.count, cache.get());
  run_span.stop();
  obs::Span write_span(phase_metrics().write);
  if (!write_output_file(cli.out_path, artifact.to_text())) return 1;
  write_span.stop();
  if (cache) print_cache_line(*cache);
  // The range comes from the artifact itself, so what we report is exactly
  // what a merge will validate — not a second ShardPlan computation.
  std::printf("wrote %s (scenarios [%llu, %llu))\n", cli.out_path.c_str(),
              static_cast<unsigned long long>(artifact.range.begin),
              static_cast<unsigned long long>(artifact.range.end));
  if (!cli.metrics_path.empty() &&
      !emit_manifest(job, cli.shard, artifact.range.size(), runner.threads(), t0_ns)) {
    return 1;
  }
  return 0;
}

int cmd_merge(const std::vector<std::string>& args) {
  dist::MergeCli cli;
  std::string error;
  if (!dist::parse_merge_args(args, cli, error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage();
  }
  Job job;
  job.subcommand = "merge";
  job.argv = args;
  job.csv_path = cli.csv_path;
  job.json_path = cli.json_path;
  job.metrics_path = cli.metrics_path;
  const std::int64_t t0_ns = arm_observability(cli.metrics_path, /*progress=*/false);

  obs::Span run_span(phase_metrics().run);
  std::vector<dist::ShardArtifact> artifacts;
  artifacts.reserve(cli.inputs.size());
  for (const std::string& path : cli.inputs) {
    std::ifstream is(path, std::ios::binary);
    if (!is) {
      std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << is.rdbuf();
    artifacts.push_back(dist::ShardArtifact::from_text(text.str()));
  }
  const dist::MergedSweep merged = dist::merge_shards(artifacts);
  run_span.stop();
  std::printf("merged %zu shard%s: %llu scenarios (%s mode)\n", artifacts.size(),
              artifacts.size() == 1 ? "" : "s",
              static_cast<unsigned long long>(merged.spec.total_scenarios()),
              std::string(dist::to_string(merged.spec.mode)).c_str());
  return report(job, merged, /*direct=*/false, /*cache=*/nullptr, /*threads=*/1, t0_ns);
}

int run(int argc, char** argv) {
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  // `simulate` without an INI file (nothing or a --flag next) is the
  // generated-scenario sweep mode; with a file it simulates that network.
  const bool simulate_sweep = command == "simulate" && (args.empty() || args[0].rfind("--", 0) == 0);
  if (command == "sweep" || command == "optimize" || simulate_sweep) return cmd_run(command, args);
  if (command == "shard") return cmd_shard(args);
  if (command == "merge") return cmd_merge(args);
  if (args.empty()) return usage();
  return cmd_network(command, args[0], std::vector<std::string>(args.begin() + 1, args.end()));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
