// Verdict-equivalence suite: the verdict-only analyses the optimizer and the
// sensitivity searches probe with — fcfs_schedulable, dm_schedulable,
// edf_schedulable, profibus::schedulable, and OPA's
// audsley_stream_orders(…).has_value() — must return exactly the full
// analysis's .schedulable. They cut work three ways (a D_i ceiling on the
// eq.-16 fixed point, an EDF offset scan that stops at the first miss, and
// the u > 1 busy-period short-circuit), and each cut must be exact for every
// fuel, not only where the iterations converge.
//
// Corpus: the shared 1000-network generator (support/network_corpus.hpp) —
// multi-master, jitter, exactly saturated masters, kernel-fallback
// magnitudes, degraded networks — plus, per network, the optimizer's three
// probe kinds (with_scaled_frames to a message utilization up to 1.3,
// with_ttr, with_deadline_ratio) and a "tight" probe whose deadlines are
// moved onto the DM responses, so R_i == D_i occurs exactly. Every case runs
// at fuel 1, 2, 3, 16 and 1 << 16, and EDF under each kernel route.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../support/network_corpus.hpp"
#include "core/simd.hpp"
#include "opt/optimizer.hpp"
#include "profibus/dispatching.hpp"
#include "profibus/priority_assignment.hpp"
#include "profibus/sensitivity.hpp"

namespace profisched::profibus {
namespace {

constexpr int kFuels[] = {1, 2, 3, 16, 1 << 16};
constexpr std::size_t kNumFuels = std::size(kFuels);
constexpr std::size_t kDefaultFuel = kNumFuels - 1;  ///< 1 << 16
constexpr Formulation kForms[] = {Formulation::PaperLiteral, Formulation::Refined};

struct Probe {
  std::string where;  ///< seed, corpus regimes and probe kind
  Network net;
  TimingMemo memo;
  bool derived_memo = false;  ///< memo == compute_timing(net): the method forms apply
  /// Full-analysis verdicts under the active kernels, computed once:
  /// dm[form][fuel] and edf[fuel], indexed like kForms and kFuels.
  bool dm[2][kNumFuels] = {};
  bool edf[kNumFuels] = {};
};

/// The network with every deadline moved onto its DM response (where that
/// is finite and a valid deadline), a few rounds, so that some streams end
/// with R_i == D_i under their own DM order.
Network tightened(Network net, const TimingMemo& memo) {
  for (int round = 0; round < 4; ++round) {
    const NetworkAnalysis dm = analyze_dm(net, memo);
    bool moved = false;
    for (std::size_t k = 0; k < net.n_masters(); ++k) {
      for (std::size_t i = 0; i < net.masters[k].nh(); ++i) {
        MessageStream& s = net.masters[k].high_streams[i];
        const Ticks r = dm.masters[k].streams[i].response;
        if (r != kNoBound && r >= s.Ch && r != s.D) {
          s.D = r;
          moved = true;
        }
      }
    }
    if (!moved) break;
  }
  return net;
}

/// Σ_i T_cycle/T_i in double, summed in stream order as the analysis does.
double tcycle_utilization(const Master& master, Ticks tcycle) {
  double u = 0.0;
  for (const MessageStream& s : master.high_streams) {
    u += static_cast<double>(tcycle) / static_cast<double>(s.T);
  }
  return u;
}

/// A master with more than six streams and 0.95 < u <= 1.
bool long_scan(const Network& net, const TimingMemo& memo) {
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    const double u = tcycle_utilization(net.masters[k], memo.per_master[k]);
    if (net.masters[k].nh() > 6 && u > 0.95 && u <= 1.0) return true;
  }
  return false;
}

std::vector<Probe> probes_of(const test_support::CorpusNetwork& c) {
  const std::string where = "seed " + std::to_string(c.seed) + " (" + c.kind + ")";
  sim::Rng rng(c.seed * 0xd1b54a32d192ed03ULL + 11);
  std::vector<Probe> out;
  out.push_back({where + " base", c.net, c.memo, c.kind.find("degraded") == std::string::npos});

  // Frame and T_TR probes are redrawn (a few times at most) when they land a
  // master with more than six streams just below saturation, where one EDF
  // scan covers thousands of offsets per stream: the corpus bounds its own
  // near-saturated masters the same way to keep the suite's run time (under
  // ASan too) in check, and its saturated masters cover that regime.
  const double u = message_utilization(c.net);
  for (int attempt = 0; attempt < 8; ++attempt) {
    const double target = 0.2 + 1.1 * rng.uniform01();
    const Ticks q = std::max<Ticks>(1, static_cast<Ticks>(1024.0 * target / u));
    Network frames = with_scaled_frames(c.net, q);
    TimingMemo memo = compute_timing(frames);
    if (attempt + 1 < 8 && long_scan(frames, memo)) continue;
    out.push_back({where + " frames q=" + std::to_string(q), std::move(frames), memo, true});
    break;
  }
  for (int attempt = 0; attempt < 8; ++attempt) {
    const Ticks ttr = rng.uniform(c.net.ring_latency() + 1, 4 * c.net.ttr);
    Network ttr_net = with_ttr(c.net, ttr);
    TimingMemo memo = compute_timing(ttr_net);
    if (attempt + 1 < 8 && long_scan(ttr_net, memo)) continue;
    out.push_back({where + " ttr=" + std::to_string(ttr), std::move(ttr_net), memo, true});
    break;
  }

  const Ticks beta = rng.uniform(64, 2048);
  Network dratio = with_deadline_ratio(c.net, beta);
  out.push_back(
      {where + " dratio=" + std::to_string(beta), dratio, compute_timing(dratio), true});

  out.push_back({where + " tight", tightened(c.net, c.memo), c.memo, false});
  return out;
}

const std::vector<Probe>& corpus() {
  static const std::vector<Probe> probes = [] {
    std::vector<Probe> out;
    for (std::uint64_t seed = 1; seed <= test_support::kCorpusNetworks; ++seed) {
      for (Probe& p : probes_of(test_support::corpus_network(seed))) {
        for (std::size_t f = 0; f < kNumFuels; ++f) {
          for (std::size_t form = 0; form < 2; ++form) {
            p.dm[form][f] = analyze_dm(p.net, p.memo, kForms[form], kFuels[f]).schedulable;
          }
          p.edf[f] = analyze_edf(p.net, p.memo, nullptr, kFuels[f]).schedulable;
        }
        out.push_back(std::move(p));
      }
    }
    return out;
  }();
  return probes;
}

/// The plain busy-period iteration, without the u > 1 short-circuit.
Ticks plain_busy_period(const Master& master, Ticks tcycle, int fuel) {
  Ticks L = sat_mul(static_cast<Ticks>(master.nh()), tcycle);
  for (int it = 0; it < fuel; ++it) {
    Ticks next = 0;
    for (const MessageStream& s : master.high_streams) {
      next = sat_add(next, sat_mul(ceil_div_plus(sat_add(L, s.J), s.T), tcycle));
    }
    if (next == L) return L;
    if (next == kNoBound) return kNoBound;
    L = next;
  }
  return kNoBound;
}

/// EDF verdicts against full analyses run under the same kernel route (a
/// kernel that falls back mid-iteration restarts the scalar recurrence with
/// fresh fuel, so fuel-bound outcomes may differ between routes).
void check_edf_route() {
  AnalysisScratch scratch;
  for (const Probe& p : corpus()) {
    for (const int fuel : kFuels) {
      EXPECT_EQ(analyze_edf(p.net, p.memo, nullptr, fuel).schedulable,
                edf_schedulable(p.net, p.memo, fuel, scratch))
          << p.where << " fuel " << fuel;
    }
  }
}

TEST(VerdictEquivalence, CorpusCoversEveryRegime) {
  std::size_t tight_equal = 0, sched = 0, unsched = 0, over_one = 0, edf_sched = 0;
  std::size_t rounded_above_one = 0, u_above_one = 0;
  for (const Probe& p : corpus()) {
    const NetworkAnalysis dm = analyze_dm(p.net, p.memo);
    (dm.schedulable ? sched : unsched) += 1;
    edf_sched += p.edf[kDefaultFuel];
    over_one += message_utilization(p.net) > 1.0;
    for (std::size_t k = 0; k < p.net.n_masters(); ++k) {
      const Master& m = p.net.masters[k];
      const double u = tcycle_utilization(m, p.memo.per_master[k]);
      u_above_one += u > 1.0 + 1e-9;
      rounded_above_one += u > 1.0 && u <= 1.0 + 1e-9;
      for (std::size_t i = 0; i < m.nh(); ++i) {
        const StreamResponse& r = dm.masters[k].streams[i];
        // Exactly on the deadline, reached after at least one iteration step.
        tight_equal += r.response == m.high_streams[i].D && m.nh() > 1;
      }
    }
  }
  EXPECT_GE(corpus().size(), 5 * test_support::kCorpusNetworks);
  EXPECT_GT(sched, 0u);
  EXPECT_GT(unsched, 0u);
  EXPECT_GT(edf_sched, 0u);
  EXPECT_GT(over_one, 0u);     // frame probes past message utilization 1
  EXPECT_GT(u_above_one, 0u);  // masters the short-circuit rejects
  EXPECT_GT(tight_equal, 0u);  // R_i == D_i, where the ceiling test is sharp
  EXPECT_GT(rounded_above_one, 0u);  // inside the margin: the iteration decides
}

TEST(VerdictEquivalence, BusyPeriodMatchesPlainIteration) {
  for (const Probe& p : corpus()) {
    for (const int fuel : kFuels) {
      const std::vector<Ticks> busy = edf_busy_periods(p.net, p.memo, fuel);
      for (std::size_t k = 0; k < p.net.n_masters(); ++k) {
        EXPECT_EQ(plain_busy_period(p.net.masters[k], p.memo.per_master[k], fuel), busy[k])
            << p.where << " master " << k << " fuel " << fuel;
      }
    }
  }
}

TEST(VerdictEquivalence, SaturatedMasterWhoseSumRoundsAboveOne) {
  // Nine streams with T_i = 9·T_cycle: u is exactly 1 and L = 9·T_cycle
  // closes at once, but nine doubles of 1/9 sum to 1 + 2⁻⁵², so only the
  // margin keeps the short-circuit from rejecting the master.
  Network net;
  net.ttr = 2'000;
  Master m;
  m.name = "m0";
  m.high_streams.assign(9, MessageStream{.Ch = 300, .D = 1, .T = 1, .J = 0, .name = ""});
  net.masters = {m};
  const TimingMemo memo = compute_timing(net);
  const Ticks tcycle = memo.per_master[0];
  for (MessageStream& s : net.masters[0].high_streams) {
    s.T = 9 * tcycle;
    s.D = 9 * tcycle;
  }
  ASSERT_GT(tcycle_utilization(net.masters[0], tcycle), 1.0);
  EXPECT_EQ(edf_busy_periods(net, memo), std::vector<Ticks>{9 * tcycle});
  AnalysisScratch scratch;
  for (const int fuel : kFuels) {
    EXPECT_EQ(analyze_edf(net, memo, nullptr, fuel).schedulable,
              edf_schedulable(net, memo, fuel, scratch))
        << "fuel " << fuel;
  }
  EXPECT_TRUE(edf_schedulable(net, memo, 1 << 16, scratch));
}

TEST(VerdictEquivalence, FcfsMatchesFullAnalysis) {
  for (const Probe& p : corpus()) {
    EXPECT_EQ(analyze_fcfs(p.net, p.memo).schedulable, fcfs_schedulable(p.net, p.memo))
        << p.where;
  }
}

TEST(VerdictEquivalence, DmMatchesFullAnalysis) {
  AnalysisScratch scratch;
  for (const Probe& p : corpus()) {
    for (std::size_t form = 0; form < 2; ++form) {
      for (std::size_t f = 0; f < kNumFuels; ++f) {
        EXPECT_EQ(p.dm[form][f], dm_schedulable(p.net, p.memo, kForms[form], kFuels[f], scratch))
            << p.where << " form " << form << " fuel " << kFuels[f];
      }
    }
  }
}

TEST(VerdictEquivalence, OpaOrdersExistIffFixedPriorityReanalysisPasses) {
  for (const Probe& p : corpus()) {
    for (const Formulation form : kForms) {
      for (const int fuel : kFuels) {
        const auto orders = audsley_stream_orders(p.net, p.memo, form, fuel);
        if (!orders) continue;
        EXPECT_TRUE(analyze_fixed_priority(p.net, *orders, p.memo, form, fuel).schedulable)
            << p.where << " form " << static_cast<int>(form) << " fuel " << fuel;
      }
    }
  }
}

TEST(VerdictEquivalence, EdfActiveKernelsMatchFullAnalysis) {
  AnalysisScratch scratch;
  for (const Probe& p : corpus()) {
    for (std::size_t f = 0; f < kNumFuels; ++f) {
      EXPECT_EQ(p.edf[f], edf_schedulable(p.net, p.memo, kFuels[f], scratch))
          << p.where << " fuel " << kFuels[f];
    }
  }
}

TEST(VerdictEquivalence, EdfForcedScalarMatchesFullAnalysis) {
  simd::force_scalar(true);
  check_edf_route();
  simd::force_scalar(false);
}

TEST(VerdictEquivalence, EdfScalarLaneKernelsMatchFullAnalysis) {
  simd::override_kernels(&simd::scalar_lane_kernels());
  check_edf_route();
  simd::override_kernels(nullptr);
}

/// The predicates built on the verdict entry profibus::schedulable —
/// network_test_for and the optimizer's optimize_network_test — and the
/// entry itself under the other T_cycle method agree with the full analyses
/// they stand for.
TEST(VerdictEquivalence, PredicatesMatchFullAnalyses) {
  const engine::EngineOptions eo;
  const engine::Policy policies[] = {engine::Policy::Fcfs, engine::Policy::Dm,
                                     engine::Policy::Edf, engine::Policy::Opa};
  std::vector<NetworkTest> optimize_tests;
  for (const engine::Policy policy : policies) {
    optimize_tests.push_back(opt::optimize_network_test(policy, eo));
  }
  for (const Probe& p : corpus()) {
    // The wrappers only route to the memo-form verdicts checked above; one
    // probe per network shows the method, formulation and fuel pass through.
    if (!p.derived_memo || !p.where.ends_with(" base")) continue;
    const bool fcfs = analyze_fcfs(p.net, p.memo).schedulable;
    const bool dm = p.dm[0][kDefaultFuel];
    const bool edf = p.edf[kDefaultFuel];
    const auto orders = audsley_stream_orders(p.net);
    const bool opa = orders && analyze_fixed_priority(p.net, *orders).schedulable;
    EXPECT_EQ(fcfs, network_test_for(ApPolicy::Fcfs)(p.net)) << p.where;
    EXPECT_EQ(dm, network_test_for(ApPolicy::Dm)(p.net)) << p.where;
    EXPECT_EQ(edf, network_test_for(ApPolicy::Edf)(p.net)) << p.where;
    EXPECT_EQ(fcfs, optimize_tests[0](p.net)) << p.where;
    EXPECT_EQ(dm, optimize_tests[1](p.net)) << p.where;
    EXPECT_EQ(edf, optimize_tests[2](p.net)) << p.where;
    EXPECT_EQ(opa, optimize_tests[3](p.net)) << p.where;
    // The other T_cycle method reaches the verdicts through the same entry.
    const TcycleMethod refined = TcycleMethod::PerMasterRefined;
    for (const Formulation form : kForms) {
      EXPECT_EQ(analyze_dm(p.net, refined, form).schedulable,
                schedulable(p.net, ApPolicy::Dm, refined, form))
          << p.where;
    }
    EXPECT_EQ(analyze_edf(p.net, refined).schedulable, schedulable(p.net, ApPolicy::Edf, refined))
        << p.where;
  }
}

}  // namespace
}  // namespace profisched::profibus
