#include "profibus/edf_analysis.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/response_time_edf.hpp"

namespace profisched::profibus {

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
    const Ticks tcycle = tc[k];
    const auto write = [&](Ticks* C, Ticks* T, Ticks* D, Ticks* J) {
      for (std::size_t i = 0; i < master.nh(); ++i) {
        const MessageStream& si = master.high_streams[i];
        C[i] = tcycle;
        T[i] = si.T;
        D[i] = si.D;
        J[i] = si.J;
      }
    };
    const TaskSetView& v = s.arena.bind_columns(master.nh(), write);
    // T*_cycle(a) = T_cycle iff some other stream has D_j − J_j > a + D_i.
    // Stream i itself never does (J_i >= 0, a >= 0), so the master-wide
    // maximum decides it in O(1) for every stream.
    Ticks latest = std::numeric_limits<Ticks>::min();
    for (std::size_t j = 0; j < v.n; ++j) latest = std::max(latest, v.D[j] - v.J[j]);

    for (std::size_t i = 0; i < master.nh(); ++i) {
      StreamResponse& r = ma.streams[i];
      Ticks best = 0;
      Ticks best_a = 0;
      std::size_t examined = 0;
      bool ok = true;
      Ticks seed = 0;  // the previous offset's L(a): a valid warm seed (see header)
      edf_candidate_offsets(v, i, horizon, s.offsets);
      for (const Ticks a : s.offsets) {
        ++examined;
        const Ticks abs_deadline = sat_add(a, v.D[i]);
        const Ticks blocking = latest > abs_deadline ? tcycle : 0;  // T*_cycle(a)
        const Ticks base = sat_add(blocking, sat_mul(floor_div(a, v.T[i]), tcycle));
        const EdfOffsetFixedPoint fp =
            edf_offset_fixed_point(v, i, abs_deadline, base, seed, /*start_time_form=*/true, fuel);
        if (!fp.converged) {
          ok = false;
          break;
        }
        seed = fp.value;
        const Ticks response = sat_add(tcycle, std::max<Ticks>(0, fp.value - a));  // eq. 17
        if (response > best) {
          best = response;
          best_a = a;
        }
      }
      s.edf_offsets_examined += examined;
      if (ok) {
        r.response = best;
        r.Q = best - tcycle;
        r.meets_deadline = r.response <= v.D[i];
      }
      if (detail) (*detail)[k][i] = {best_a, examined};
      if (!r.meets_deadline) ma.schedulable = false;
    }
    if (!ma.schedulable) out.schedulable = false;
  }
  return out;
}

}  // namespace profisched::profibus
