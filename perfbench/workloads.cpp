#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>

#include "dist/dist_cli.hpp"
#include "dist/result_cache.hpp"
#include "dist/shard.hpp"
#include "engine/aggregate.hpp"
#include "engine/sim_aggregate.hpp"
#include "engine/sim_cli.hpp"
#include "obs/metrics.hpp"
#include "opt/opt_aggregate.hpp"
#include "opt/opt_cli.hpp"
#include "profibus/dispatching.hpp"
#include "profibus/fault_bounds.hpp"
#include "profibus/priority_assignment.hpp"

namespace perfbench {

namespace {

using namespace profisched;
using engine::Policy;
using Args = std::vector<std::string>;

// Scenarios per grid point. A pass takes 0.15 s to 0.7 s on a 2020s x86 core,
// and at these sizes the rate differs little from seed to seed. shard_cache's
// pass hands work to the pool and back six times (two per shard); on a shared
// host each wake-up can take a millisecond, so its pass is made long enough
// that they stay a small share of it.
constexpr std::size_t kSweepEdfPerPoint = 100;
constexpr std::size_t kOptimizePerPoint = 250;
constexpr std::size_t kCombinedPerPoint = 50;
constexpr std::size_t kShardCachePerPoint = 64;
constexpr std::uint64_t kShards = 3;
/// sweep_edf re-analyses every kSampleStride-th scenario through the plain
/// profibus::analyze_network entry point.
constexpr std::uint64_t kSampleStride = 8;

Args concat(Args a, const Args& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

Args grid_flags(std::size_t per_point, std::uint64_t seed, unsigned threads) {
  return {"--scenarios", std::to_string(per_point), "--seed", std::to_string(seed), "--threads",
          std::to_string(threads)};
}

engine::SimSweepCli parse_sim(const Args& flags, bool simulable_only) {
  engine::SimSweepCli cli;
  std::string error;
  if (!engine::parse_sim_sweep_args(flags, cli, error, simulable_only)) {
    throw std::runtime_error("workload flags rejected: " + error);
  }
  return cli;
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/// min over streams of D − R, exactly as AnalysisEngine reports it.
Ticks worst_slack(const profibus::Network& net, const profibus::NetworkAnalysis& na) {
  Ticks worst = kNoBound;
  for (std::size_t k = 0; k < na.masters.size(); ++k) {
    for (std::size_t i = 0; i < na.masters[k].streams.size(); ++i) {
      const Ticks r = na.masters[k].streams[i].response;
      const Ticks slack = r == kNoBound ? std::numeric_limits<Ticks>::min()
                                        : net.masters[k].high_streams[i].D - r;
      worst = worst == kNoBound ? slack : std::min(worst, slack);
    }
  }
  return worst;
}

/// Max over streams of the response bound; kNoBound once any diverged.
Ticks max_response(const profibus::NetworkAnalysis& na) {
  Ticks wcrt = 0;
  for (const profibus::MasterAnalysis& m : na.masters) {
    for (const profibus::StreamResponse& sr : m.streams) {
      if (sr.response == kNoBound) return kNoBound;
      wcrt = std::max(wcrt, sr.response);
    }
  }
  return wcrt;
}

/// OPA's verdict when no fixed priority order schedules the set.
profibus::NetworkAnalysis all_miss(const profibus::Network& net, const profibus::TimingMemo& tm) {
  profibus::NetworkAnalysis na;
  na.tcycle = tm.tcycle;
  na.masters.resize(net.n_masters());
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    na.masters[k].streams.resize(net.masters[k].nh());
  }
  return na;
}

/// One policy's analysis through the memo-taking profibus entry points, each
/// under its own span: the same calls AnalysisEngine dispatches.
profibus::NetworkAnalysis analyze_traced(const profibus::Network& net,
                                         const profibus::TimingMemo& tm, Policy policy,
                                         const engine::EngineOptions& eo,
                                         std::optional<std::vector<Ticks>>& busy,
                                         profibus::AnalysisScratch* scratch) {
  switch (policy) {
    case Policy::Fcfs: {
      const Scope s(SpanName::Fcfs);
      return profibus::analyze_fcfs(net, tm);
    }
    case Policy::Dm: {
      const Scope s(SpanName::Dm);
      return profibus::analyze_dm(net, tm, eo.formulation, eo.fuel, scratch);
    }
    case Policy::Edf: {
      if (!busy) {
        const Scope s(SpanName::EdfBusy);
        busy = profibus::edf_busy_periods(net, tm, eo.fuel);
      }
      const Scope s(SpanName::Edf);
      return profibus::analyze_edf(net, tm, nullptr, eo.fuel, &*busy, scratch);
    }
    case Policy::Opa: {
      const Scope s(SpanName::Opa);
      const auto orders = profibus::audsley_stream_orders(net, tm, eo.formulation, eo.fuel);
      return orders ? profibus::analyze_fixed_priority(net, *orders, tm, eo.formulation, eo.fuel)
                    : all_miss(net, tm);
    }
    default:
      throw std::invalid_argument("perfbench: policy outside fcfs/dm/edf/opa");
  }
}

profibus::TimingMemo timing_traced(const profibus::Network& net, profibus::TcycleMethod method) {
  const Scope s(SpanName::Timing);
  return profibus::compute_timing(net, method);
}

/// Accumulates time spent inside run_scenarios callbacks, per worker slot.
class PoolMeter {
 public:
  explicit PoolMeter(unsigned threads) : busy_(threads, 0) {}

  /// RAII: adds the enclosing callback's duration to its worker's slot.
  class Busy {
   public:
    Busy(PoolMeter& m, unsigned worker) : slot_(m.busy_[worker]), t0_(now_ns()) {}
    ~Busy() { slot_ += now_ns() - t0_; }
    Busy(const Busy&) = delete;
    Busy& operator=(const Busy&) = delete;

   private:
    std::int64_t& slot_;
    std::int64_t t0_;
  };

  void fold(const engine::RunStats& stats, TraceCounts& c) const {
    std::int64_t total = 0;
    for (const std::int64_t b : busy_) total += b;
    c.pool_busy_s += static_cast<double>(total) * 1e-9;
    c.pool_capacity_s += static_cast<double>(busy_.size()) * stats.elapsed_s;
  }

 private:
  std::vector<std::int64_t> busy_;
};

Output serialize(const auto& table) {
  const Scope s(SpanName::Serialize);
  return Output{table.to_csv(), table.to_json()};
}

std::uint64_t registry_counter(std::string_view name) {
  return obs::Registry::global().snapshot().counter(name);
}

/// The thread pool's own task counters. Its latency histogram records a
/// task's run time only while obs timing is on, and only after the task has
/// released its parallel_for caller, so it can trail tasks_executed briefly.
struct PoolTasks {
  std::uint64_t executed = 0;
  std::uint64_t timed = 0;
  std::uint64_t busy_ns = 0;
};

PoolTasks pool_tasks() {
  const obs::Snapshot s = obs::Registry::global().snapshot();
  PoolTasks t;
  t.executed = s.counter("pool.tasks_executed");
  for (const obs::HistogramSample& h : s.histograms) {
    if (h.name == "pool.task_latency_ns") {
      t.timed = h.count;
      t.busy_ns = h.sum;
    }
  }
  return t;
}

// ---------------------------------------------------------------- sweep_edf

/// `profisched sweep` with 12 HP streams per master: analyze_edf dominates.
class SweepEdf final : public Workload {
 public:
  explicit SweepEdf(std::uint64_t seed)
      : flags_(concat({"--masters", "3", "--streams", "12", "--u", "0.2:0.95:8", "--policies",
                       "fcfs,dm,edf"},
                      grid_flags(kSweepEdfPerPoint, seed, 1))) {}

  std::vector<Args> cli(const std::string&, const std::string& csv,
                        const std::string& json) const override {
    return {concat(concat({"sweep"}, flags_), {"--csv", csv, "--json", json})};
  }

  PassResult setup() override {
    const engine::SimSweepCli cli = parse_sim(flags_, /*simulable_only=*/false);
    spec_ = cli.spec.sweep;
    runner_ = std::make_unique<engine::SweepRunner>(cli.threads);
    return pass();
  }

  std::uint64_t scenarios() const override { return spec_.total_scenarios(); }

  PassResult pass() override {
    result_ = runner_->run(spec_);
    PassResult p;
    p.out = serialize(engine::aggregate(spec_, result_));
    p.cells = result_.outcomes.size() * spec_.policies.size();
    return p;
  }

  std::uint64_t check_once(const Output&) override {
    // The invariant: the plain per-policy entry point agrees with the
    // engine's memoized batch on verdict and worst slack, cell by cell.
    std::uint64_t bad = 0;
    for (std::uint64_t id = 0; id < spec_.total_scenarios(); id += kSampleStride) {
      const engine::Scenario sc = engine::SweepRunner::make_scenario(spec_, id);
      const engine::ScenarioOutcome& o = result_.outcomes[id];
      for (std::size_t p = 0; p < spec_.policies.size(); ++p) {
        const profibus::NetworkAnalysis na = profibus::analyze_network(
            sc.net, engine::SimulationEngine::to_ap_policy(spec_.policies[p]),
            spec_.engine.method);
        if (na.schedulable != o.schedulable[p] || worst_slack(sc.net, na) != o.worst_slack[p]) {
          ++bad;
        }
      }
    }
    return bad;
  }

  TracedPass traced_pass(const ProductCounts&) override {
    TracedPass tp;
    const std::uint64_t total = spec_.total_scenarios();
    engine::SweepResult replay;
    replay.outcomes.resize(total);
    std::vector<profibus::AnalysisScratch> scratch(runner_->threads());
    PoolMeter meter(runner_->threads());

    const std::int64_t t0 = now_ns();
    runner_->run_scenarios(total, engine::IdRange{0, total}, replay,
                           [&](std::uint64_t id, std::size_t slot, unsigned worker) {
      const PoolMeter::Busy busy(meter, worker);
      const Scope root(SpanName::Scenario, id + 1);
      engine::Scenario sc;
      {
        const Scope s(SpanName::Generate);
        sc = engine::SweepRunner::make_scenario(spec_, id);
      }
      sc.net.validate();
      const profibus::TimingMemo tm = timing_traced(sc.net, spec_.engine.method);
      std::optional<std::vector<Ticks>> edf_busy;
      engine::ScenarioOutcome& o = replay.outcomes[slot];
      o.id = sc.id;
      o.seed = sc.seed;
      o.point = static_cast<std::size_t>(id) / spec_.scenarios_per_point;
      o.tcycle = tm.tcycle;
      for (const Policy policy : spec_.policies) {
        const profibus::NetworkAnalysis na =
            analyze_traced(sc.net, tm, policy, spec_.engine, edf_busy, &scratch[worker]);
        o.schedulable.push_back(na.schedulable);
        o.worst_slack.push_back(worst_slack(sc.net, na));
      }
    });
    meter.fold(replay, tp.counts);
    engine::SweepCurves curves;
    {
      const Scope s(SpanName::Aggregate);
      curves = engine::aggregate(spec_, replay);
    }
    tp.out = serialize(curves);
    const std::int64_t t1 = now_ns();
    tp.wall_s = static_cast<double>(t1 - t0) * 1e-9;
    tp.timed = take(t0, t1);

    tp.cells = total * spec_.policies.size();
    for (std::uint64_t i = 0; i < total; ++i) {
      const engine::ScenarioOutcome& a = replay.outcomes[i];
      const engine::ScenarioOutcome& b = result_.outcomes[i];
      for (std::size_t p = 0; p < spec_.policies.size(); ++p) {
        if (a.tcycle != b.tcycle || a.schedulable[p] != b.schedulable[p] ||
            a.worst_slack[p] != b.worst_slack[p]) {
          ++tp.mismatched_cells;
        }
      }
    }
    return tp;
  }

 private:
  Args flags_;
  engine::SweepSpec spec_;
  std::unique_ptr<engine::SweepRunner> runner_;
  engine::SweepResult result_;
};

// ----------------------------------------------------------------- optimize

/// `profisched optimize` on the pool at full width: cold analyses on mutated
/// networks, ~50 probes per cell.
class Optimize final : public Workload {
 public:
  explicit Optimize(std::uint64_t seed)
      : flags_(concat({"--masters", "3", "--streams", "4", "--u", "0.3:0.9:4", "--policies",
                       "fcfs,dm,edf"},
                      grid_flags(kOptimizePerPoint, seed, std::min(4u, available_cpus())))) {}

  std::vector<Args> cli(const std::string&, const std::string& csv,
                        const std::string& json) const override {
    return {concat(concat({"optimize"}, flags_), {"--csv", csv, "--json", json})};
  }

  PassResult setup() override {
    opt::OptimizeCli cli;
    std::string error;
    if (!opt::parse_optimize_args(flags_, cli, error)) {
      throw std::runtime_error("workload flags rejected: " + error);
    }
    spec_ = cli.spec;
    runner_ = std::make_unique<engine::SweepRunner>(cli.threads);
    return pass();
  }

  std::uint64_t scenarios() const override { return spec_.sweep.total_scenarios(); }

  PassResult pass() override {
    result_ = opt::run_optimize(*runner_, spec_);
    PassResult p;
    p.out = serialize(opt::aggregate_optimize(spec_, result_));
    p.cells = result_.outcomes.size() * spec_.sweep.policies.size();
    return p;
  }

  std::uint64_t check_once(const Output& reference) override {
    // Thread-count invariance: a 1-thread run writes the same bytes.
    engine::SweepRunner one(1);
    const Output single = serialize(opt::aggregate_optimize(spec_, opt::run_optimize(one, spec_)));
    return single.csv == reference.csv && single.json == reference.json ? 0 : kAllCells;
  }

  TracedPass traced_pass(const ProductCounts& product) override {
    TracedPass tp;
    const std::uint64_t total = spec_.sweep.total_scenarios();
    const std::vector<Policy>& policies = spec_.sweep.policies;
    const engine::EngineOptions& eo = spec_.sweep.engine;
    std::vector<profibus::NetworkTest> product_tests;
    for (const Policy p : policies) product_tests.push_back(opt::optimize_network_test(p, eo));

    opt::OptimizeResult replay;
    replay.outcomes.resize(total);
    const unsigned threads = runner_->threads();
    std::vector<std::uint64_t> probes(threads, 0), mismatched(threads, 0);
    PoolMeter meter(threads);

    const std::int64_t t0 = now_ns();
    runner_->run_scenarios(total, engine::IdRange{0, total}, replay,
                           [&](std::uint64_t id, std::size_t slot, unsigned worker) {
      const PoolMeter::Busy busy(meter, worker);
      const Scope root(SpanName::Scenario, id + 1);
      engine::Scenario sc;
      {
        const Scope s(SpanName::Generate);
        sc = engine::SweepRunner::make_scenario(spec_.sweep, id);
      }
      opt::OptimizeOutcome& o = replay.outcomes[slot];
      o.id = sc.id;
      o.seed = sc.seed;
      o.point = static_cast<std::size_t>(id) / spec_.sweep.scenarios_per_point;
      for (const Policy policy : policies) {
        // The product predicate is analyze_<policy>(net, method, ...), which
        // derives the timing itself; the replay derives it under its own span
        // and passes it to the memo-taking form of the same analysis.
        const profibus::NetworkTest traced = [&](const profibus::Network& net) {
          ++probes[worker];
          const Scope s(SpanName::OptProbe);
          if (policy == Policy::Edf) net.validate();  // edf_busy_periods runs first
          const profibus::TimingMemo tm = timing_traced(net, eo.method);
          std::optional<std::vector<Ticks>> edf_busy;
          return analyze_traced(net, tm, policy, eo, edf_busy, nullptr).schedulable;
        };
        const Scope s(SpanName::OptSearch);
        o.per_policy.push_back(opt::optimize_policy(sc.net, traced, spec_.options));
      }
      if (id % kSampleStride == 0) {
        for (std::size_t p = 0; p < policies.size(); ++p) {
          if (product_tests[p](sc.net) != o.per_policy[p].schedulable) ++mismatched[worker];
        }
      }
    });
    meter.fold(replay, tp.counts);
    opt::OptimizeTable table;
    {
      const Scope s(SpanName::Aggregate);
      table = opt::aggregate_optimize(spec_, replay);
    }
    tp.out = serialize(table);
    const std::int64_t t1 = now_ns();
    tp.wall_s = static_cast<double>(t1 - t0) * 1e-9;
    tp.timed = take(t0, t1);

    tp.cells = total * policies.size();
    for (const std::uint64_t n : probes) tp.counts.probes += n;
    for (const std::uint64_t n : mismatched) tp.mismatched_cells += n;
    // The registry counts the bisection probes; the wrapper also sees each
    // cell's base-configuration verdict. Any other difference means the
    // replay walked a different search path than the product pass.
    if (tp.counts.probes != product.opt_probes + tp.cells) tp.mismatched_cells += tp.cells;
    for (std::uint64_t i = 0; i < total; ++i) {
      for (std::size_t p = 0; p < policies.size(); ++p) {
        const opt::PolicyOptimum& a = replay.outcomes[i].per_policy[p];
        const opt::PolicyOptimum& b = result_.outcomes[i].per_policy[p];
        if (a.schedulable != b.schedulable || a.breakdown_q != b.breakdown_q ||
            a.max_ttr != b.max_ttr || a.min_dratio_q != b.min_dratio_q) {
          ++tp.mismatched_cells;
        }
      }
    }
    return tp;
  }

 private:
  Args flags_;
  opt::OptimizeSpec spec_;
  std::unique_ptr<engine::SweepRunner> runner_;
  opt::OptimizeResult result_;
};

// --------------------------------------------------------- combined_faulted

/// `simulate --combined` under injected faults: the simulator dominates.
class CombinedFaulted final : public Workload {
 public:
  explicit CombinedFaulted(std::uint64_t seed)
      : flags_(concat({"--combined", "--masters", "3", "--streams", "4", "--u", "0.3:0.9:4",
                       "--reps", "2", "--faults",
                       "loss=0.02,recovery=800,corrupt=0.05,retrans=2,churn=0.01,offline=5000,"
                       "burst=0.7"},
                      grid_flags(kCombinedPerPoint, seed, 1))) {}

  std::vector<Args> cli(const std::string&, const std::string& csv,
                        const std::string& json) const override {
    return {concat(concat({"simulate"}, flags_), {"--csv", csv, "--json", json})};
  }

  PassResult setup() override {
    const engine::SimSweepCli cli = parse_sim(flags_, /*simulable_only=*/true);
    spec_ = cli.spec;
    runner_ = std::make_unique<engine::SweepRunner>(cli.threads);
    return pass();
  }

  std::uint64_t scenarios() const override { return spec_.sweep.total_scenarios(); }

  PassResult pass() override {
    result_ = runner_->run_combined(spec_);
    PassResult p;
    p.out = serialize(engine::consistency_table(spec_, result_));
    p.cells = result_.outcomes.size() * spec_.sweep.policies.size();
    // The invariant: no stream beats its degraded bound, and no cell the
    // degraded analysis accepts misses a deadline in simulation.
    for (const engine::CombinedOutcome& o : result_.outcomes) {
      for (std::size_t q = 0; q < o.bound_violations.size(); ++q) {
        if (o.bound_violations[q] > 0 || (o.accept_basis()[q] && o.sim.misses[q] > 0)) {
          ++p.bad_cells;
        }
      }
    }
    return p;
  }

  std::uint64_t check_once(const Output&) override { return 0; }  // checked every pass

  TracedPass traced_pass(const ProductCounts& product) override {
    TracedPass tp;
    const std::uint64_t total = spec_.sweep.total_scenarios();
    const std::vector<Policy>& policies = spec_.sweep.policies;
    const engine::EngineOptions& eo = spec_.sweep.engine;
    const engine::SimulationEngine sim(spec_.sim);
    const bool faulted = spec_.sim.faults.any();
    engine::CombinedResult replay;
    replay.outcomes.resize(total);
    std::vector<profibus::AnalysisScratch> scratch(runner_->threads());
    std::vector<TraceCounts> per_worker(runner_->threads());
    PoolMeter meter(runner_->threads());

    const std::int64_t t0 = now_ns();
    runner_->run_scenarios(total, engine::IdRange{0, total}, replay,
                           [&](std::uint64_t id, std::size_t slot, unsigned worker) {
      const PoolMeter::Busy busy(meter, worker);
      TraceCounts& counts = per_worker[worker];
      const Scope root(SpanName::Scenario, id + 1);
      engine::Scenario sc;
      {
        const Scope s(SpanName::Generate);
        sc = engine::SweepRunner::make_scenario(spec_.sweep, id);
      }
      sc.net.validate();
      const profibus::TimingMemo tm = timing_traced(sc.net, eo.method);
      std::optional<std::vector<Ticks>> edf_busy;
      std::optional<profibus::Network> dnet;
      std::optional<profibus::TimingMemo> dmemo;

      engine::CombinedOutcome& o = replay.outcomes[slot];
      o.sim.id = sc.id;
      o.sim.seed = sc.seed;
      o.sim.point = static_cast<std::size_t>(id) / spec_.sweep.scenarios_per_point;
      o.sim.horizon = sim.horizon_for(sc);
      for (const Policy policy : policies) {
        const profibus::NetworkAnalysis clean =
            analyze_traced(sc.net, tm, policy, eo, edf_busy, &scratch[worker]);
        o.analytic_schedulable.push_back(clean.schedulable);
        o.analytic_wcrt.push_back(max_response(clean));

        profibus::NetworkAnalysis degraded;
        if (faulted) {
          const Scope s(SpanName::Degraded);
          if (!dnet) {
            dnet = profibus::degraded_network(sc.net, spec_.sim.faults);
            dmemo = profibus::degraded_timing(*dnet, spec_.sim.faults, eo.method);
          }
          degraded = profibus::analyze_degraded(*dnet, *dmemo,
                                                engine::SimulationEngine::to_ap_policy(policy),
                                                eo.formulation, eo.fuel);
          o.degraded_schedulable.push_back(degraded.schedulable);
          o.degraded_wcrt.push_back(max_response(degraded));
        }

        // Replications reduced to the sweep's columns, as the runner does.
        engine::SimSummary agg;
        std::vector<std::vector<Ticks>> stream_max(sc.net.n_masters());
        for (std::size_t k = 0; k < sc.net.n_masters(); ++k) {
          stream_max[k].assign(sc.net.masters[k].nh(), 0);
        }
        for (std::size_t rep = 0; rep < spec_.replications; ++rep) {
          sim::SimReport r;
          {
            const Scope s(SpanName::Sim);
            r = sim.simulate(sc, policy, rep);
          }
          ++counts.sim_runs;
          counts.sim_events += r.events;
          counts.tokens_lost += r.faults.tokens_lost;
          counts.retransmissions += r.faults.retransmissions;
          const engine::SimSummary s = engine::SimulationEngine::summarize(r, spec_.sim.quantile);
          agg.observed_max = std::max(agg.observed_max, s.observed_max);
          agg.observed_p99 = std::max(agg.observed_p99, s.observed_p99);
          agg.released += s.released;
          agg.completed += s.completed;
          agg.misses += s.misses;
          agg.dropped += s.dropped;
          for (std::size_t k = 0; k < r.hp.size(); ++k) {
            for (std::size_t i = 0; i < r.hp[k].size(); ++i) {
              stream_max[k][i] = std::max(stream_max[k][i], r.hp[k][i].max_response);
            }
          }
        }
        o.sim.observed_max.push_back(agg.observed_max);
        o.sim.observed_p99.push_back(agg.observed_p99);
        o.sim.released.push_back(agg.released);
        o.sim.completed.push_back(agg.completed);
        o.sim.misses.push_back(agg.misses);
        o.sim.dropped.push_back(agg.dropped);

        const profibus::NetworkAnalysis& ref = faulted ? degraded : clean;
        std::uint64_t violations = 0;
        for (std::size_t k = 0; k < ref.masters.size(); ++k) {
          for (std::size_t i = 0; i < ref.masters[k].streams.size(); ++i) {
            const Ticks bound = ref.masters[k].streams[i].response;
            if (bound != kNoBound && stream_max[k][i] > bound) ++violations;
          }
        }
        o.bound_violations.push_back(violations);
      }
    });
    meter.fold(replay, tp.counts);
    engine::ConsistencyTable table;
    {
      const Scope s(SpanName::Aggregate);
      table = engine::consistency_table(spec_, replay);
    }
    tp.out = serialize(table);
    const std::int64_t t1 = now_ns();
    tp.wall_s = static_cast<double>(t1 - t0) * 1e-9;
    tp.timed = take(t0, t1);

    for (const TraceCounts& c : per_worker) tp.counts += c;
    tp.cells = total * policies.size();
    // Event and fault counts are exact: the replay must simulate the very
    // runs the product pass did.
    if (tp.counts.sim_events != product.sim_events ||
        tp.counts.tokens_lost != product.tokens_lost ||
        tp.counts.retransmissions != product.retransmissions) {
      tp.mismatched_cells += tp.cells;
    }
    for (std::uint64_t i = 0; i < total; ++i) {
      const engine::CombinedOutcome& a = replay.outcomes[i];
      const engine::CombinedOutcome& b = result_.outcomes[i];
      for (std::size_t p = 0; p < policies.size(); ++p) {
        if (a.analytic_schedulable[p] != b.analytic_schedulable[p] ||
            a.analytic_wcrt[p] != b.analytic_wcrt[p] ||
            a.accept_basis()[p] != b.accept_basis()[p] ||
            a.bound_violations[p] != b.bound_violations[p] ||
            a.sim.observed_max[p] != b.sim.observed_max[p] ||
            a.sim.misses[p] != b.sim.misses[p]) {
          ++tp.mismatched_cells;
        }
      }
    }
    return tp;
  }

 private:
  Args flags_;
  engine::SimSweepSpec spec_;
  std::unique_ptr<engine::SweepRunner> runner_;
  engine::CombinedResult result_;
};

// -------------------------------------------------------------- shard_cache

/// ScenarioCache decorator: times and counts every load/store the runner
/// makes against the wrapped on-disk cache.
class TracedCache final : public engine::ScenarioCache {
 public:
  explicit TracedCache(engine::ScenarioCache& inner) : inner_(inner) {}

  bool load(const engine::CacheKey& key, std::string& payload) override {
    const Scope s(SpanName::CacheLoad);
    const bool hit = inner_.load(key, payload);
    loads_.fetch_add(1, std::memory_order_relaxed);
    if (hit) hits_.fetch_add(1, std::memory_order_relaxed);
    return hit;
  }

  void store(const engine::CacheKey& key, const std::string& payload) override {
    const Scope s(SpanName::CacheStore);
    inner_.store(key, payload);
  }

  [[nodiscard]] std::uint64_t loads() const noexcept { return loads_.load(); }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_.load(); }

 private:
  engine::ScenarioCache& inner_;
  std::atomic<std::uint64_t> loads_{0};
  std::atomic<std::uint64_t> hits_{0};
};

/// Three in-process `profisched shard` runs against one result cache, then
/// the `profisched merge` path: encode, decode, merge, aggregate, write.
class ShardCache final : public Workload {
 public:
  ShardCache(std::uint64_t seed, std::string work_dir)
      : flags_(concat({"--mode", "sweep", "--policies", "fcfs,dm,opa", "--u", "0.2:0.95:8",
                       "--beta", "0.6:1.0:3", "--masters", "1,2,4"},
                      grid_flags(kShardCachePerPoint, seed, 1))),
        work_(std::move(work_dir)) {}

  ~ShardCache() override {
    std::error_code ec;
    for (const std::string& d : dirs_) std::filesystem::remove_all(d, ec);
  }

  std::vector<Args> cli(const std::string& dir, const std::string& csv,
                        const std::string& json) const override {
    std::vector<Args> runs;
    Args merge = {"merge", "--csv", csv, "--json", json};
    for (std::uint64_t k = 1; k <= kShards; ++k) {
      const std::string out = dir + "/shard-" + std::to_string(k) + ".txt";
      runs.push_back(concat(concat({"shard"}, flags_),
                            {"--shard", std::to_string(k) + "/" + std::to_string(kShards),
                             "--cache", dir + "/cache", "--out", out}));
      merge.push_back(out);
    }
    runs.push_back(merge);
    return runs;
  }

  void prepare() override {
    parse_spec();
    cache_dir_ = new_dir("cache");
    dist::ResultCache cache(cache_dir_);
    cold_ = run_shards(cache).out;
    cold_hits_ = hits_;
  }

  PassResult setup() override {
    parse_spec();
    cache_ = std::make_unique<dist::ResultCache>(cache_dir_);
    return pass();
  }

  std::uint64_t scenarios() const override { return spec_.total_scenarios(); }

  PassResult pass() override {
    PassResult warm = run_shards(*cache_);
    warm.bad_cells = misses_;  // a warm pass must hit on every lookup
    return warm;
  }

  std::uint64_t check_once(const Output& reference) override {
    // Warm == cold == a single-process run without any cache, and the cold
    // fill missed on every lookup.
    engine::SweepRunner single(1);
    const Output direct = serialize(
        engine::aggregate(spec_.spec.sweep, single.run(spec_.spec.sweep)));
    const bool same = direct.csv == reference.csv && direct.json == reference.json &&
                      cold_.csv == reference.csv && cold_.json == reference.json &&
                      cold_hits_ == 0;
    return same ? 0 : kAllCells;
  }

  TracedPass traced_pass(const ProductCounts&) override {
    TracedPass tp;
    const engine::SweepResult product = merged_;
    const Output product_out = last_out_;

    // Replayed set-up, on the first replay only: a cold fill of a fresh
    // cache through the decorator. Later replays reuse that cache, so a
    // traced run writes no more files than an untraced one; every fill
    // leaves the disk slower for minutes afterwards.
    const std::uint64_t heals0 = registry_counter("cache.file.corruption_heals");
    if (!trace_cache_) {
      trace_cache_ = std::make_unique<dist::ResultCache>(new_dir("trace-cache"));
      const std::uint64_t written0 = registry_counter("cache.file.bytes_written");
      TracedCache deco(*trace_cache_);
      const std::int64_t t0 = now_ns();
      (void)run_shards(deco);
      tp.setup = take(t0, now_ns());
      tp.replayed_setup = true;
      tp.counts.bytes_written = registry_counter("cache.file.bytes_written") - written0;
    }

    // Replayed timed phase: warm shards + merge path. The pool runs inside
    // ShardRunner, out of reach of a callback meter, so its busy time comes
    // from the pool's own task timing, switched on for the replay.
    TracedCache deco(*trace_cache_);
    const std::uint64_t read0 = registry_counter("cache.file.bytes_read");
    const PoolTasks pool0 = pool_tasks();
    const bool timing_was_on = obs::enabled();
    obs::set_enabled(true);
    const std::int64_t t0 = now_ns();
    PassResult warm = run_shards(deco);
    const std::int64_t t1 = now_ns();
    PoolTasks pool1 = pool_tasks();
    const std::int64_t deadline = now_ns() + 1'000'000'000;
    while (pool1.timed - pool0.timed < pool1.executed - pool0.executed) {
      if (now_ns() > deadline) throw std::runtime_error("pool tasks ran without task timing");
      std::this_thread::yield();
      pool1 = pool_tasks();
    }
    obs::set_enabled(timing_was_on);
    tp.counts.pool_busy_s = static_cast<double>(pool1.busy_ns - pool0.busy_ns) * 1e-9;
    tp.counts.pool_capacity_s = runner_->threads() * static_cast<double>(shards_ns_) * 1e-9;
    tp.wall_s = static_cast<double>(t1 - t0) * 1e-9;
    tp.timed = take(t0, t1);
    tp.counts.bytes_read = registry_counter("cache.file.bytes_read") - read0;
    tp.counts.heals = registry_counter("cache.file.corruption_heals") - heals0;
    tp.counts.loads = deco.loads();
    tp.counts.load_hits = deco.hits();
    tp.counts.artifact_bytes = artifact_bytes_;

    // ShardRunner generates each scenario inside the library, where no span
    // can reach; replay the generation of the same ids on its own.
    const std::int64_t g0 = now_ns();
    for (std::uint64_t id = 0; id < spec_.total_scenarios(); ++id) {
      const Scope s(SpanName::Generate, id + 1);
      (void)engine::SweepRunner::make_scenario(spec_.spec.sweep, id);
    }
    tp.generation = take(g0, now_ns());

    tp.out = std::move(warm.out);
    tp.cells = warm.cells;
    if (tp.out.csv != product_out.csv || tp.out.json != product_out.json || misses_ != 0) {
      tp.mismatched_cells = tp.cells;
    }
    for (std::size_t i = 0; i < product.outcomes.size(); ++i) {
      const engine::ScenarioOutcome& a = merged_.outcomes[i];
      const engine::ScenarioOutcome& b = product.outcomes[i];
      for (std::size_t p = 0; p < b.schedulable.size(); ++p) {
        if (a.schedulable[p] != b.schedulable[p] || a.worst_slack[p] != b.worst_slack[p]) {
          ++tp.mismatched_cells;
        }
      }
    }
    return tp;
  }

 private:
  void parse_spec() {
    dist::ShardCli cli;
    std::string error;
    const Args args =
        concat(flags_, {"--shard", "1/" + std::to_string(kShards), "--out", work_ + "/shard.txt"});
    if (!dist::parse_shard_args(args, cli, error)) {
      throw std::runtime_error("workload flags rejected: " + error);
    }
    spec_ = cli.shard;
    runner_ = std::make_unique<dist::ShardRunner>(cli.threads);
  }

  /// A new, empty directory under the work dir, removed by the destructor.
  std::string new_dir(const char* stem) {
    dirs_.push_back(work_ + "/" + stem + "-" + std::to_string(dirs_.size()));
    std::error_code ec;
    std::filesystem::remove_all(dirs_.back(), ec);
    return dirs_.back();
  }

  PassResult run_shards(engine::ScenarioCache& cache) {
    std::vector<dist::ShardArtifact> artifacts;
    hits_ = misses_ = 0;
    const std::int64_t shards0 = now_ns();
    for (std::uint64_t k = 0; k < kShards; ++k) {
      const Scope s(SpanName::Shard);
      const AmbientParent ambient;
      artifacts.push_back(runner_->run(spec_, k, kShards, &cache));
      hits_ += artifacts.back().cache_hits;
      misses_ += artifacts.back().cache_misses;
    }
    shards_ns_ = now_ns() - shards0;
    std::vector<std::string> texts;
    {
      const Scope s(SpanName::Encode);
      for (const dist::ShardArtifact& a : artifacts) texts.push_back(a.to_text());
    }
    artifact_bytes_ = 0;
    for (const std::string& t : texts) artifact_bytes_ += t.size();
    std::vector<dist::ShardArtifact> parsed;
    {
      const Scope s(SpanName::Decode);
      for (const std::string& t : texts) parsed.push_back(dist::ShardArtifact::from_text(t));
    }
    dist::MergedSweep merged;
    {
      const Scope s(SpanName::Merge);
      merged = dist::merge_shards(parsed);
    }
    engine::SweepCurves curves;
    {
      const Scope s(SpanName::Aggregate);
      curves = engine::aggregate(merged.spec.spec.sweep, merged.analysis);
    }
    PassResult p;
    p.out = serialize(curves);
    p.cells = merged.analysis.outcomes.size() * merged.spec.spec.sweep.policies.size();
    merged_ = std::move(merged.analysis);
    last_out_ = p.out;
    return p;
  }

  Args flags_;
  std::string work_;
  dist::ShardSpec spec_;
  std::unique_ptr<dist::ShardRunner> runner_;
  std::string cache_dir_;
  std::unique_ptr<dist::ResultCache> cache_;
  std::unique_ptr<dist::ResultCache> trace_cache_;
  std::vector<std::string> dirs_;
  Output cold_;
  std::uint64_t cold_hits_ = 0;
  Output last_out_;
  engine::SweepResult merged_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::int64_t shards_ns_ = 0;  ///< wall time of the last run_shards' shard runs
  std::uint64_t artifact_bytes_ = 0;
};

}  // namespace

std::string Output::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  };
  mix(csv);
  mix(std::string(1, '\0'));
  mix(json);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

TraceCounts& TraceCounts::operator+=(const TraceCounts& o) {
  pool_busy_s += o.pool_busy_s;
  pool_capacity_s += o.pool_capacity_s;
  sim_runs += o.sim_runs;
  sim_events += o.sim_events;
  tokens_lost += o.tokens_lost;
  retransmissions += o.retransmissions;
  probes += o.probes;
  loads += o.loads;
  load_hits += o.load_hits;
  bytes_read += o.bytes_read;
  bytes_written += o.bytes_written;
  heals += o.heals;
  artifact_bytes += o.artifact_bytes;
  return *this;
}

ProductCounts read_product_counts() {
  const obs::Snapshot s = obs::Registry::global().snapshot();
  ProductCounts c;
  c.memo_hits = s.counter("engine.memo_hits");
  c.memo_misses = s.counter("engine.memo_misses");
  c.opt_probes = s.counter("opt.probes.breakdown") + s.counter("opt.probes.ttr") +
                 s.counter("opt.probes.dratio");
  c.sim_events = s.counter("sim.events");
  c.tokens_lost = s.counter("sim.faults.tokens_lost");
  c.retransmissions = s.counter("sim.faults.retransmissions");
  return c;
}

ProductCounts operator-(const ProductCounts& a, const ProductCounts& b) {
  return ProductCounts{a.memo_hits - b.memo_hits,     a.memo_misses - b.memo_misses,
                       a.opt_probes - b.opt_probes,   a.sim_events - b.sim_events,
                       a.tokens_lost - b.tokens_lost, a.retransmissions - b.retransmissions};
}

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                        const std::string& work_dir) {
  if (name == "sweep_edf") return std::make_unique<SweepEdf>(seed);
  if (name == "optimize") return std::make_unique<Optimize>(seed);
  if (name == "combined_faulted") return std::make_unique<CombinedFaulted>(seed);
  if (name == "shard_cache") return std::make_unique<ShardCache>(seed, work_dir);
  return nullptr;
}

}  // namespace perfbench
