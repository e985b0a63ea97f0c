#include "profibus/edf_analysis.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/response_time_edf.hpp"

namespace profisched::profibus {

namespace {

/// How far the double sum Σ T_cycle/T_i must exceed 1 before a master's busy
/// period is declared divergent without iterating. A sum of n correctly
/// rounded terms errs by at most about n·2⁻⁵³, so an excess above this
/// margin is real; below it the exact iteration runs as before.
constexpr double kSaturationMargin = 1e-9;

/// Busy period of a master under one-T_cycle-per-request service:
/// L = Σ_i ⌈(L + J_i)/T_i⌉ · T_cycle from L⁰ = nh·T_cycle.
/// Returns kNoBound when the iteration diverges (token supply < demand),
/// up front when u = Σ_i T_cycle/T_i exceeds 1 by more than rounding (see
/// the header).
Ticks master_busy_period(const Master& master, Ticks tcycle, int fuel) {
  double u = 0.0;
  for (const MessageStream& s : master.high_streams) {
    u += static_cast<double>(tcycle) / static_cast<double>(s.T);
  }
  if (u > 1.0 + kSaturationMargin) return kNoBound;
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

/// A master bound for the offset scans: its SoA view (C = T_cycle) and
/// max_j(D_j − J_j), which decides T*_cycle(a) for every stream.
struct BoundMaster {
  const TaskSetView& v;
  Ticks tcycle;
  Ticks latest;
};

BoundMaster bind_master(const Master& master, Ticks tcycle, TaskSetArena& arena) {
  const auto write = [&](Ticks* C, Ticks* T, Ticks* D, Ticks* J) {
    for (std::size_t i = 0; i < master.nh(); ++i) {
      const MessageStream& si = master.high_streams[i];
      C[i] = tcycle;
      T[i] = si.T;
      D[i] = si.D;
      J[i] = si.J;
    }
  };
  const TaskSetView& v = arena.bind_columns(master.nh(), write);
  // T*_cycle(a) = T_cycle iff some other stream has D_j − J_j > a + D_i.
  // Stream i itself never does (J_i >= 0, a >= 0), so the master-wide
  // maximum decides it in O(1) for every stream.
  Ticks latest = std::numeric_limits<Ticks>::min();
  for (std::size_t j = 0; j < v.n; ++j) latest = std::max(latest, v.D[j] - v.J[j]);
  return {v, tcycle, latest};
}

/// Outcome of one stream's offset scan.
struct OffsetScan {
  bool converged = true;  ///< false: some offset's fixed point did not converge
  Ticks response = 0;     ///< max R_i(a) over the offsets scanned
  Ticks critical_offset = 0;
  std::size_t examined = 0;
};

/// Stream i's warm-started ascending scan over its candidate offsets in
/// [0, horizon] (see the header). With `stop_at_miss` it returns at the
/// first offset whose response exceeds D_i — the stream misses whatever
/// the remaining offsets give.
OffsetScan scan_offsets(const BoundMaster& m, std::size_t i, Ticks horizon, int fuel,
                        std::vector<Ticks>& offsets, bool stop_at_miss) {
  const TaskSetView& v = m.v;
  OffsetScan out;
  Ticks seed = 0;  // the previous offset's L(a): a valid warm seed (see header)
  edf_candidate_offsets(v, i, horizon, offsets);
  for (const Ticks a : offsets) {
    ++out.examined;
    const Ticks abs_deadline = sat_add(a, v.D[i]);
    const Ticks blocking = m.latest > abs_deadline ? m.tcycle : 0;  // T*_cycle(a)
    const Ticks base = sat_add(blocking, sat_mul(floor_div(a, v.T[i]), m.tcycle));
    const EdfOffsetFixedPoint fp =
        edf_offset_fixed_point(v, i, abs_deadline, base, seed, /*start_time_form=*/true, fuel);
    if (!fp.converged) {
      out.converged = false;
      return out;
    }
    seed = fp.value;
    const Ticks response = sat_add(m.tcycle, std::max<Ticks>(0, fp.value - a));  // eq. 17
    if (response > out.response) {
      out.response = response;
      out.critical_offset = a;
    }
    if (stop_at_miss && response > v.D[i]) return out;
  }
  return out;
}

}  // namespace

std::vector<Ticks> edf_busy_periods(const Network& net, const TimingMemo& memo, int fuel) {
  std::vector<Ticks> out(net.n_masters());
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    out[k] = master_busy_period(net.masters[k], memo.per_master[k], fuel);
  }
  return out;
}

NetworkAnalysis analyze_edf(const Network& net, TcycleMethod method,
                            std::vector<std::vector<EdfStreamDetail>>* detail, int fuel) {
  return analyze_edf(net, compute_timing(net, method), detail, fuel);
}

NetworkAnalysis analyze_edf(const Network& net, const TimingMemo& memo,
                            std::vector<std::vector<EdfStreamDetail>>* detail, int fuel,
                            const std::vector<Ticks>* busy, AnalysisScratch* scratch) {
  net.validate();
  NetworkAnalysis out;
  out.tcycle = memo.tcycle;
  out.schedulable = true;

  AnalysisScratch local;
  AnalysisScratch& s = scratch != nullptr ? *scratch : local;

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
    if (horizon == kNoBound) {
      // Every stream stays kNoBound / not schedulable.
      if (master.nh() > 0) ma.schedulable = out.schedulable = false;
      continue;
    }
    const BoundMaster m = bind_master(master, tc[k], s.arena);
    for (std::size_t i = 0; i < master.nh(); ++i) {
      StreamResponse& r = ma.streams[i];
      const OffsetScan scan = scan_offsets(m, i, horizon, fuel, s.offsets, /*stop_at_miss=*/false);
      s.edf_offsets_examined += scan.examined;
      if (scan.converged) {
        r.response = scan.response;
        r.Q = scan.response - tc[k];
        r.meets_deadline = r.response <= m.v.D[i];
      }
      if (detail) (*detail)[k][i] = {scan.critical_offset, scan.examined};
      if (!r.meets_deadline) ma.schedulable = false;
    }
    if (!ma.schedulable) out.schedulable = false;
  }
  return out;
}

bool edf_schedulable(const Network& net, const TimingMemo& memo, int fuel,
                     AnalysisScratch& scratch) {
  net.validate();
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    const Master& master = net.masters[k];
    // A master without streams never fails, even where fuel <= 0 leaves its
    // busy period unbounded (analyze_edf skips it the same way).
    if (master.nh() == 0) continue;
    const Ticks horizon = master_busy_period(master, memo.per_master[k], fuel);
    if (horizon == kNoBound) return false;
    const BoundMaster m = bind_master(master, memo.per_master[k], scratch.arena);
    for (std::size_t i = 0; i < master.nh(); ++i) {
      const OffsetScan scan =
          scan_offsets(m, i, horizon, fuel, scratch.offsets, /*stop_at_miss=*/true);
      if (!scan.converged || scan.response > m.v.D[i]) return false;
    }
  }
  return true;
}

}  // namespace profisched::profibus
