// Equivalence suite for the PROFIBUS EDF analysis (paper eqs. 17–18).
// analyze_edf runs on a per-master SoA view, the shared core offset fixed
// point (vector kernel or scalar recurrence) and a warm-started offset scan.
// The cold scalar analysis it replaced is kept below, verbatim, as the
// reference. Every StreamResponse field and every EdfStreamDetail must match
// it over the shared randomized corpus (support/network_corpus.hpp) — 1–4
// masters, 1–16 streams, jitter, u up to 1.05 (exactly saturating included),
// deadlines far beyond the busy period, streams faster than T_cycle (the
// vector gate off), magnitudes that trip the kernels' per-iteration gate,
// and fault_bounds degraded networks — under each kernel route:
// simd::active(), simd::force_scalar(true), and simd::scalar_lane_kernels()
// (so builds without vector kernels still test the kernel route).
#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/simd.hpp"
#include "profibus/edf_analysis.hpp"
#include "../support/network_corpus.hpp"

namespace profisched::profibus {
namespace reference {
namespace {

/// Busy period of a master under one-T_cycle-per-request service:
/// L = Σ_i ⌈(L + J_i)/T_i⌉ · T_cycle from L⁰ = nh·T_cycle.
/// Returns kNoBound when the iteration diverges (token supply < demand).
Ticks master_busy_period(const Master& master, Ticks tcycle, int fuel) {
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

/// Candidate offsets a (paper eq. 10, jitter-shifted) within [0, horizon],
/// into a reused buffer.
void candidate_offsets(const Master& master, std::size_t i, Ticks horizon,
                       std::vector<Ticks>& offsets) {
  offsets.clear();
  offsets.push_back(0);
  const Ticks di = master.high_streams[i].D;
  for (const MessageStream& sj : master.high_streams) {
    const Ticks base = sj.D - sj.J - di;
    const Ticks k0 = base >= 0 ? 0 : ceil_div(-base, sj.T);
    for (Ticks k = k0;; ++k) {
      const Ticks a = sat_add(sat_mul(k, sj.T), base);
      if (a > horizon || a == kNoBound) break;
      offsets.push_back(a);
    }
  }
  std::ranges::sort(offsets);
  const auto dup = std::ranges::unique(offsets);
  offsets.erase(dup.begin(), dup.end());
}

struct OffsetOutcome {
  bool converged = false;
  Ticks response = kNoBound;
};

/// R_i(a) per eqs. 17–18.
OffsetOutcome response_at_offset(const Master& master, std::size_t i, Ticks a, Ticks tcycle,
                                 int fuel) {
  const MessageStream& si = master.high_streams[i];
  const Ticks abs_deadline = sat_add(a, si.D);

  // T*_cycle(a): a later-deadline request from another stream may already
  // occupy the one-deep stack queue.
  Ticks blocking = 0;
  for (std::size_t j = 0; j < master.nh(); ++j) {
    if (j == i) continue;
    const MessageStream& sj = master.high_streams[j];
    if (sj.D - sj.J > abs_deadline) {
      blocking = tcycle;
      break;
    }
  }

  const Ticks own_prior = sat_mul(floor_div(a, si.T), tcycle);

  Ticks L = 0;
  for (int it = 0; it < fuel; ++it) {
    Ticks next = sat_add(blocking, own_prior);
    for (std::size_t j = 0; j < master.nh(); ++j) {
      if (j == i) continue;
      const MessageStream& sj = master.high_streams[j];
      if (sj.D - sj.J > abs_deadline) continue;  // later deadline: lower priority
      const Ticks by_time = floor_div_plus1(sat_add(L, sj.J), sj.T);
      const Ticks by_deadline = floor_div_plus1(abs_deadline - sj.D + sj.J, sj.T);
      next = sat_add(next, sat_mul(std::min(by_time, by_deadline), tcycle));
    }
    if (next == L) return {true, sat_add(tcycle, std::max<Ticks>(0, L - a))};
    if (next == kNoBound) return {};
    L = next;
  }
  return {};
}

}  // namespace

NetworkAnalysis analyze_edf(const Network& net, const TimingMemo& memo,
                            std::vector<std::vector<EdfStreamDetail>>* detail, int fuel,
                            const std::vector<Ticks>* busy, AnalysisScratch* scratch) {
  net.validate();
  NetworkAnalysis out;
  out.tcycle = memo.tcycle;
  out.schedulable = true;

  std::vector<Ticks> local_offsets;
  std::vector<Ticks>& offsets = scratch != nullptr ? scratch->offsets : local_offsets;

  const std::vector<Ticks>& tc = memo.per_master;
  out.masters.resize(net.n_masters());
  if (detail) detail->assign(net.n_masters(), {});

  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    const Master& master = net.masters[k];
    MasterAnalysis& ma = out.masters[k];
    ma.schedulable = true;
    ma.streams.resize(master.nh());
    if (detail) (*detail)[k].resize(master.nh());

    const Ticks horizon = busy ? (*busy)[k] : master_busy_period(master, tc[k], fuel);
    for (std::size_t i = 0; i < master.nh(); ++i) {
      StreamResponse& r = ma.streams[i];
      if (horizon == kNoBound) {
        ma.schedulable = false;
        continue;  // r stays kNoBound / not schedulable
      }
      Ticks best = 0;
      Ticks best_a = 0;
      std::size_t examined = 0;
      bool ok = true;
      candidate_offsets(master, i, horizon, offsets);
      for (const Ticks a : offsets) {
        ++examined;
        const OffsetOutcome o = response_at_offset(master, i, a, tc[k], fuel);
        if (!o.converged) {
          ok = false;
          break;
        }
        if (o.response > best) {
          best = o.response;
          best_a = a;
        }
      }
      if (ok) {
        r.response = best;
        r.Q = best - tc[k];
        r.meets_deadline = r.response <= master.high_streams[i].D;
      }
      if (detail) (*detail)[k][i] = {best_a, examined};
      if (!r.meets_deadline) ma.schedulable = false;
    }
    if (!ma.schedulable) out.schedulable = false;
  }
  return out;
}

}  // namespace reference

namespace {

constexpr std::size_t kNetworks = test_support::kCorpusNetworks;

struct Case : test_support::CorpusNetwork {
  NetworkAnalysis ref;
  std::vector<std::vector<EdfStreamDetail>> ref_detail;
};

Case make_case(std::uint64_t seed) {
  Case c;
  static_cast<test_support::CorpusNetwork&>(c) = test_support::corpus_network(seed);
  c.ref = reference::analyze_edf(c.net, c.memo, &c.ref_detail, 1 << 16, c.horizons(), nullptr);
  return c;
}

const std::vector<Case>& corpus() {
  static const std::vector<Case> cases = [] {
    std::vector<Case> out;
    out.reserve(kNetworks);
    for (std::uint64_t seed = 1; seed <= kNetworks; ++seed) out.push_back(make_case(seed));
    return out;
  }();
  return cases;
}

void expect_same(const Case& c, const NetworkAnalysis& got,
                 const std::vector<std::vector<EdfStreamDetail>>& detail) {
  const std::string where = "seed " + std::to_string(c.seed) + " (" + c.kind + ")";
  EXPECT_EQ(c.ref.schedulable, got.schedulable) << where;
  EXPECT_EQ(c.ref.tcycle, got.tcycle) << where;
  ASSERT_EQ(c.ref.masters.size(), got.masters.size()) << where;
  ASSERT_EQ(c.ref_detail.size(), detail.size()) << where;
  for (std::size_t k = 0; k < got.masters.size(); ++k) {
    EXPECT_EQ(c.ref.masters[k].schedulable, got.masters[k].schedulable) << where;
    ASSERT_EQ(c.ref.masters[k].streams.size(), got.masters[k].streams.size()) << where;
    ASSERT_EQ(c.ref_detail[k].size(), detail[k].size()) << where;
    for (std::size_t i = 0; i < got.masters[k].streams.size(); ++i) {
      const std::string at =
          where + " master " + std::to_string(k) + " stream " + std::to_string(i);
      const StreamResponse& r = c.ref.masters[k].streams[i];
      const StreamResponse& g = got.masters[k].streams[i];
      EXPECT_EQ(r.Q, g.Q) << at;
      EXPECT_EQ(r.response, g.response) << at;
      EXPECT_EQ(r.meets_deadline, g.meets_deadline) << at;
      EXPECT_EQ(c.ref_detail[k][i].critical_offset, detail[k][i].critical_offset) << at;
      EXPECT_EQ(c.ref_detail[k][i].offsets_examined, detail[k][i].offsets_examined) << at;
    }
  }
}

/// Every case through the memo overload with one reused scratch (so the
/// arena rebinds across masters of every size) and through the convenience
/// path without scratch or horizons; the scratch accumulator must count
/// exactly the offsets the details report.
void check_corpus() {
  AnalysisScratch scratch;
  for (const Case& c : corpus()) {
    std::vector<std::vector<EdfStreamDetail>> detail;
    const std::uint64_t before = scratch.edf_offsets_examined;
    const NetworkAnalysis got =
        analyze_edf(c.net, c.memo, &detail, 1 << 16, c.horizons(), &scratch);
    expect_same(c, got, detail);
    std::uint64_t examined = 0;
    for (const auto& per_master : detail) {
      for (const EdfStreamDetail& d : per_master) examined += d.offsets_examined;
    }
    EXPECT_EQ(scratch.edf_offsets_examined - before, examined) << "seed " << c.seed;
    if (!c.busy) {
      std::vector<std::vector<EdfStreamDetail>> plain_detail;
      expect_same(c, analyze_edf(c.net, c.memo, &plain_detail), plain_detail);
    }
  }
}

TEST(EdfEquivalence, CorpusCoversEveryRegime) {
  std::size_t saturated = 0, gate_off = 0, huge = 0, degraded = 0, long_d = 0, jitter = 0;
  std::size_t unschedulable = 0, scanned = 0;
  for (const Case& c : corpus()) {
    saturated += c.kind.find("saturated") != std::string::npos;
    gate_off += c.kind.find("fast-stream") != std::string::npos;
    huge += c.kind.find("huge") != std::string::npos;
    degraded += c.kind.find("degraded") != std::string::npos;
    long_d += c.kind.find("long-deadline") != std::string::npos;
    jitter += c.kind.find("jitter") != std::string::npos;
    unschedulable += !c.ref.schedulable;
    for (const auto& per_master : c.ref_detail) {
      for (const EdfStreamDetail& d : per_master) scanned += d.offsets_examined > 1;
    }
  }
  EXPECT_GE(corpus().size(), 1000u);
  EXPECT_GT(saturated, 0u);
  EXPECT_GT(gate_off, 0u);
  EXPECT_GT(huge, 0u);
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(long_d, 0u);
  EXPECT_GT(jitter, 0u);
  EXPECT_GT(unschedulable, 0u);
  EXPECT_LT(unschedulable, corpus().size());
  EXPECT_GT(scanned, 0u);  // multi-offset scans, where the warm start acts
}

TEST(EdfEquivalence, ActiveKernelsMatchReference) { check_corpus(); }

TEST(EdfEquivalence, ForcedScalarMatchesReference) {
  simd::force_scalar(true);
  check_corpus();
  simd::force_scalar(false);
}

TEST(EdfEquivalence, ScalarLaneKernelsMatchReference) {
  simd::override_kernels(&simd::scalar_lane_kernels());
  check_corpus();
  simd::override_kernels(nullptr);
}

}  // namespace
}  // namespace profisched::profibus
