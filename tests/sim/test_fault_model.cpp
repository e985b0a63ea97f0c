// Unit tests for the fault-injection layer: knob validation, the injection
// mechanics of each fault class (token loss, frame corruption, ring churn),
// listener/stats agreement, seeded determinism, and — the load-bearing
// guarantee — that a zero-probability FaultModel leaves the simulation
// byte-identical to a fault-free run (the fault RNG must never be consulted).
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "profibus/fault_model.hpp"
#include "sim/network_sim.hpp"
#include "sim/trace.hpp"
#include "../support/counting_listener.hpp"

namespace profisched::sim {
namespace {

using profibus::ApPolicy;
using profibus::FaultModel;
using profibus::Master;
using profibus::MessageStream;
using profibus::Network;

MessageStream stream(Ticks ch, Ticks d, Ticks t) {
  return MessageStream{.Ch = ch, .D = d, .T = t, .J = 0, .name = ""};
}

Network ring(std::size_t n_masters, Ticks ttr) {
  Network net;
  net.ttr = ttr;
  for (std::size_t k = 0; k < n_masters; ++k) {
    Master m;
    m.high_streams = {stream(500, 40'000, 10'000), stream(300, 60'000, 20'000)};
    net.masters.push_back(m);
  }
  return net;
}

SimConfig base_config(std::size_t n_masters = 2, Ticks horizon = 200'000) {
  SimConfig cfg;
  cfg.net = ring(n_masters, 5'000);
  cfg.policy = ApPolicy::Fcfs;
  cfg.horizon = horizon;
  cfg.seed = 42;
  return cfg;
}

std::string render_run(SimConfig cfg) {
  Trace trace(1 << 16);
  cfg.trace = &trace;
  const SimReport r = simulate(cfg);
  std::ostringstream out;
  out << "events=" << r.events << '\n';
  for (std::size_t k = 0; k < r.hp.size(); ++k) {
    for (std::size_t i = 0; i < r.hp[k].size(); ++i) {
      const StreamStats& s = r.hp[k][i];
      out << k << '/' << i << ' ' << s.released << ' ' << s.completed << ' '
          << s.deadline_misses << ' ' << s.dropped << ' ' << s.max_response << '\n';
    }
  }
  out << trace.render();
  return out.str();
}

using test_support::CountingListener;

TEST(FaultModel, ValidateRejectsBadKnobs) {
  const auto bad = [](auto&& mutate) {
    FaultModel f;
    mutate(f);
    EXPECT_THROW(f.validate(), std::invalid_argument);
  };
  bad([](FaultModel& f) { f.token_loss_prob = -0.1; });
  bad([](FaultModel& f) { f.token_loss_prob = 1.5; });
  bad([](FaultModel& f) { f.corruption_prob = 2.0; });
  bad([](FaultModel& f) { f.churn_prob = -1.0; });
  bad([](FaultModel& f) { f.burst_correlation = 1.01; });
  bad([](FaultModel& f) { f.token_recovery = -1; });
  bad([](FaultModel& f) { f.churn_offline = -5; });
  bad([](FaultModel& f) { f.max_retransmissions = -2; });
  FaultModel ok;
  ok.token_loss_prob = 1.0;
  ok.corruption_prob = 0.5;
  ok.churn_prob = 0.25;
  ok.burst_correlation = 1.0;
  EXPECT_NO_THROW(ok.validate());
}

TEST(FaultModel, AnyReflectsActiveKnobs) {
  FaultModel f;
  EXPECT_FALSE(f.any());
  // Deterministic knobs alone (no probability) keep the model inert.
  f.token_recovery = 10'000;
  f.churn_offline = 5'000;
  f.max_retransmissions = 7;
  EXPECT_FALSE(f.any());
  f.token_loss_prob = 0.01;
  EXPECT_TRUE(f.any());
  f = FaultModel{};
  f.burst_correlation = 0.5;
  EXPECT_TRUE(f.any());
}

// The zero-fault guarantee: probabilities at zero mean the fault RNG is never
// drawn from and every observable byte matches a config that never mentioned
// faults — whatever the deterministic knobs are set to.
TEST(FaultModel, ZeroProbabilityIsByteIdenticalToFaultFree) {
  SimConfig plain = base_config();
  SimConfig zeroed = base_config();
  zeroed.faults.token_recovery = 50'000;
  zeroed.faults.churn_offline = 99'999;
  zeroed.faults.max_retransmissions = 9;
  const std::string a = render_run(plain);
  const std::string b = render_run(zeroed);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  const SimReport r = simulate(zeroed);
  EXPECT_EQ(r.faults.total(), 0u);
}

TEST(FaultModel, TokenLossDelaysEveryPassByRecovery) {
  SimConfig cfg = base_config(1, 100'000);
  cfg.faults.token_loss_prob = 1.0;  // every pass loses the token
  cfg.faults.token_recovery = 2'500;
  const SimReport r = simulate(cfg);
  EXPECT_GT(r.faults.tokens_lost, 0u);
  EXPECT_EQ(r.faults.token_skips, 0u);  // single master: nothing to skip

  // The same horizon without loss completes strictly more token rotations,
  // so loss at probability one must not be free.
  SimConfig clean = base_config(1, 100'000);
  const SimReport rc = simulate(clean);
  EXPECT_LT(r.events, rc.events);
}

TEST(FaultModel, CorruptionStretchesCyclesAndCountsRetransmissions) {
  SimConfig cfg = base_config(1, 150'000);
  cfg.faults.corruption_prob = 1.0;  // every cycle corrupts to the cap
  cfg.faults.max_retransmissions = 3;
  CountingListener listener;
  cfg.listener = &listener;
  const SimReport r = simulate(cfg);
  ASSERT_GT(r.faults.corrupted_cycles, 0u);
  // At probability one each corrupted cycle burns the full retransmission cap.
  EXPECT_EQ(r.faults.retransmissions, r.faults.corrupted_cycles * 3);
  EXPECT_EQ(listener.count(FaultKind::FrameCorrupted), r.faults.corrupted_cycles);
  for (const FaultEvent& e : listener.events) {
    if (e.kind == FaultKind::FrameCorrupted) {
      EXPECT_EQ(e.detail, 3);
    }
  }
  // A (1+3)x stretched 500-tick cycle must show up in observed responses.
  const SimReport clean = simulate(base_config(1, 150'000));
  EXPECT_GT(r.hp[0][0].max_response, clean.hp[0][0].max_response);
}

TEST(FaultModel, ChurnTakesStationsOfflineAndBack) {
  SimConfig cfg = base_config(3, 400'000);
  cfg.faults.churn_prob = 1.0;  // every non-anchor master leaves after holding
  cfg.faults.churn_offline = 20'000;
  CountingListener listener;
  cfg.listener = &listener;
  const SimReport r = simulate(cfg);
  EXPECT_GT(r.faults.leaves, 0u);
  EXPECT_GT(r.faults.rejoins, 0u);
  EXPECT_GT(r.faults.token_skips, 0u);  // passes hop over offline stations
  EXPECT_GE(r.faults.leaves, r.faults.rejoins);  // a leave precedes its rejoin
  EXPECT_EQ(listener.count(FaultKind::StationLeft), r.faults.leaves);
  EXPECT_EQ(listener.count(FaultKind::StationRejoined), r.faults.rejoins);
  EXPECT_EQ(listener.count(FaultKind::TokenSkip), r.faults.token_skips);
  // Master 0 anchors the ring: it never leaves.
  for (const FaultEvent& e : listener.events) {
    if (e.kind == FaultKind::StationLeft) {
      EXPECT_NE(e.master, 0u);
    }
  }
  // Releases while offline are dropped, not missed: they must be accounted.
  EXPECT_EQ(listener.count(FaultKind::ChurnDrop), r.faults.churn_dropped);
  std::uint64_t dropped = 0;
  for (const auto& master : r.hp) {
    for (const StreamStats& s : master) dropped += s.dropped;
  }
  EXPECT_EQ(dropped, r.faults.churn_dropped);
}

TEST(FaultModel, ListenerAgreesWithStatsAcrossAllKinds) {
  SimConfig cfg = base_config(3, 300'000);
  cfg.faults.token_loss_prob = 0.3;
  cfg.faults.token_recovery = 1'000;
  cfg.faults.corruption_prob = 0.2;
  cfg.faults.max_retransmissions = 2;
  cfg.faults.churn_prob = 0.1;
  cfg.faults.churn_offline = 15'000;
  CountingListener listener;
  cfg.listener = &listener;
  const SimReport r = simulate(cfg);
  EXPECT_EQ(listener.count(FaultKind::TokenLost), r.faults.tokens_lost);
  EXPECT_EQ(listener.count(FaultKind::TokenSkip), r.faults.token_skips);
  EXPECT_EQ(listener.count(FaultKind::StationLeft), r.faults.leaves);
  EXPECT_EQ(listener.count(FaultKind::StationRejoined), r.faults.rejoins);
  EXPECT_EQ(listener.count(FaultKind::FrameCorrupted), r.faults.corrupted_cycles);
  EXPECT_EQ(listener.count(FaultKind::ChurnDrop), r.faults.churn_dropped);
  EXPECT_GT(r.faults.total(), 0u);
}

TEST(FaultModel, FaultedRunsAreSeedDeterministic) {
  SimConfig cfg = base_config(3, 250'000);
  cfg.faults.token_loss_prob = 0.2;
  cfg.faults.token_recovery = 800;
  cfg.faults.corruption_prob = 0.15;
  cfg.faults.churn_prob = 0.05;
  cfg.faults.churn_offline = 10'000;
  const std::string a = render_run(cfg);
  const std::string b = render_run(cfg);
  EXPECT_EQ(a, b);
  cfg.seed = 43;
  const std::string c = render_run(cfg);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace profisched::sim
