// The observability layer's core guarantee: turning on --metrics/--progress
// instrumentation changes ZERO bytes of any primary artifact. Each test runs
// the same small sweep with telemetry off and fully on (timed spans + the
// progress heartbeat) and compares the serialized outputs byte-for-byte,
// across every engine backend (analysis, sim, combined, optimize). The
// analysis-effort counters must also be independent of the thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/aggregate.hpp"
#include "engine/sim_aggregate.hpp"
#include "engine/sweep_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "opt/opt_aggregate.hpp"
#include "opt/optimizer.hpp"
#include "profibus/edf_analysis.hpp"

namespace profisched {
namespace {

/// Flips both telemetry switches for a scope and restores them on exit.
class ObsFlagsGuard {
 public:
  ObsFlagsGuard(bool enabled, bool progress)
      : was_enabled_(obs::enabled()), was_progress_(obs::progress_enabled()) {
    obs::set_enabled(enabled);
    obs::set_progress_enabled(progress);
  }
  ~ObsFlagsGuard() {
    obs::set_enabled(was_enabled_);
    obs::set_progress_enabled(was_progress_);
  }

 private:
  bool was_enabled_;
  bool was_progress_;
};

engine::SimSweepSpec small_spec() {
  engine::SimSweepSpec spec;
  spec.sweep.base.n_masters = 1;
  spec.sweep.base.streams_per_master = 4;
  spec.sweep.base.ttr = 3'000;
  spec.sweep.points = {engine::SweepPoint{0.3, 0.5, 1.0}, engine::SweepPoint{0.7, 0.5, 1.0}};
  spec.sweep.scenarios_per_point = 8;
  spec.sweep.policies = {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf};
  spec.sweep.seed = 4242;
  spec.replications = 2;
  spec.sim.horizon_cycles = 25.0;
  return spec;
}

TEST(ObsByteIdentity, AnalysisSweepOutputsAreIdentical) {
  const engine::SimSweepSpec spec = small_spec();
  std::string off_csv, off_json, on_csv, on_json;
  {
    const ObsFlagsGuard flags(false, false);
    engine::SweepRunner runner(2);
    const engine::SweepCurves curves =
        engine::aggregate(spec.sweep, runner.run(spec.sweep, nullptr));
    off_csv = curves.to_csv();
    off_json = curves.to_json();
  }
  {
    const ObsFlagsGuard flags(true, true);
    engine::SweepRunner runner(2);
    const engine::SweepCurves curves =
        engine::aggregate(spec.sweep, runner.run(spec.sweep, nullptr));
    on_csv = curves.to_csv();
    on_json = curves.to_json();
  }
  EXPECT_EQ(off_csv, on_csv);
  EXPECT_EQ(off_json, on_json);
}

TEST(ObsByteIdentity, SimSweepOutputsAreIdentical) {
  const engine::SimSweepSpec spec = small_spec();
  std::string off_csv, on_csv;
  {
    const ObsFlagsGuard flags(false, false);
    engine::SweepRunner runner(2);
    off_csv = engine::aggregate_sim(spec, runner.run_sim(spec, nullptr)).to_csv();
  }
  {
    const ObsFlagsGuard flags(true, true);
    engine::SweepRunner runner(2);
    on_csv = engine::aggregate_sim(spec, runner.run_sim(spec, nullptr)).to_csv();
  }
  EXPECT_EQ(off_csv, on_csv);
}

TEST(ObsByteIdentity, CombinedSweepOutputsAreIdentical) {
  engine::SimSweepSpec spec = small_spec();
  spec.sim.faults.token_loss_prob = 0.02;  // exercise the fault bridge too
  spec.sim.faults.token_recovery = 600;
  std::string off_csv, on_csv;
  {
    const ObsFlagsGuard flags(false, false);
    engine::SweepRunner runner(2);
    off_csv = engine::consistency_table(spec, runner.run_combined(spec, nullptr)).to_csv();
  }
  {
    const ObsFlagsGuard flags(true, true);
    engine::SweepRunner runner(2);
    on_csv = engine::consistency_table(spec, runner.run_combined(spec, nullptr)).to_csv();
  }
  EXPECT_EQ(off_csv, on_csv);
}

TEST(ObsByteIdentity, OptimizeOutputsAreIdentical) {
  opt::OptimizeSpec spec;
  spec.sweep = small_spec().sweep;
  spec.sweep.scenarios_per_point = 4;
  std::string off_csv, off_json, on_csv, on_json;
  {
    const ObsFlagsGuard flags(false, false);
    engine::SweepRunner runner(2);
    const opt::OptimizeTable table =
        opt::aggregate_optimize(spec, opt::run_optimize(runner, spec, nullptr));
    off_csv = table.to_csv();
    off_json = table.to_json();
  }
  {
    const ObsFlagsGuard flags(true, true);
    engine::SweepRunner runner(2);
    const opt::OptimizeTable table =
        opt::aggregate_optimize(spec, opt::run_optimize(runner, spec, nullptr));
    on_csv = table.to_csv();
    on_json = table.to_json();
  }
  EXPECT_EQ(off_csv, on_csv);
  EXPECT_EQ(off_json, on_json);
}

TEST(ObsCounters, EdfOffsetsExaminedIsExactAndThreadCountInvariant) {
  // analysis.edf.offsets_examined counts every offset the EDF analyses
  // scanned: the same total at 1 and 4 threads, equal to what the
  // per-stream diagnostics of direct analyze_edf calls add up to.
  const engine::SweepSpec spec = small_spec().sweep;
  const auto counted = [&](unsigned threads) {
    const obs::Counter c = obs::Registry::global().counter("analysis.edf.offsets_examined");
    const std::uint64_t before = c.value();
    engine::SweepRunner runner(threads);
    (void)runner.run(spec, nullptr);
    return c.value() - before;
  };
  const std::uint64_t one = counted(1);
  EXPECT_GT(one, 0u);
  EXPECT_EQ(one, counted(4));

  std::uint64_t direct = 0;
  for (std::uint64_t id = 0; id < spec.total_scenarios(); ++id) {
    const engine::Scenario sc = engine::SweepRunner::make_scenario(spec, id);
    std::vector<std::vector<profibus::EdfStreamDetail>> detail;
    (void)profibus::analyze_edf(sc.net, spec.engine.method, &detail, spec.engine.fuel);
    for (const auto& per_master : detail) {
      for (const profibus::EdfStreamDetail& d : per_master) direct += d.offsets_examined;
    }
  }
  EXPECT_EQ(one, direct);
}

}  // namespace
}  // namespace profisched
