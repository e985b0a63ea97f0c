#include "core/response_time_edf.hpp"

#include <algorithm>

#include "core/simd.hpp"

namespace profisched {

std::vector<Ticks> edf_candidate_offsets(const TaskSet& ts, std::size_t i, Ticks horizon) {
  std::vector<Ticks> offsets{0};
  const Ticks di = ts[i].D;
  for (std::size_t j = 0; j < ts.size(); ++j) {
    const Task& tj = ts[j];
    const Ticks base = tj.D - tj.J - di;
    // First k with k·T_j + base >= 0.
    Ticks k0 = base >= 0 ? 0 : ceil_div(-base, tj.T);
    for (Ticks k = k0;; ++k) {
      const Ticks a = sat_add(sat_mul(k, tj.T), base);
      if (a > horizon || a == kNoBound) break;
      offsets.push_back(a);
    }
  }
  std::ranges::sort(offsets);
  const auto dup = std::ranges::unique(offsets);
  offsets.erase(dup.begin(), dup.end());
  return offsets;
}

namespace {

/// Higher-priority workload W_i(a, t) (preemptive) or W*_i(a, t)
/// (non-preemptive start-time form): jobs of other tasks with absolute
/// deadline no later than a + D_i.
Ticks hp_workload(const TaskSet& ts, std::size_t i, Ticks a, Ticks t, bool start_time_form) {
  const Ticks abs_deadline = sat_add(a, ts[i].D);
  Ticks sum = 0;
  for (std::size_t j = 0; j < ts.size(); ++j) {
    if (j == i) continue;
    const Task& tj = ts[j];
    if (tj.D - tj.J > abs_deadline) continue;  // deadline after i's: not higher priority
    const Ticks by_deadline = floor_div_plus1(abs_deadline - tj.D + tj.J, tj.T);
    const Ticks by_time = start_time_form ? floor_div_plus1(sat_add(t, tj.J), tj.T)
                                          : ceil_div_plus(sat_add(t, tj.J), tj.T);
    sum = sat_add(sum, sat_mul(std::min(by_time, by_deadline), tj.C));
  }
  return sum;
}

/// Blocking by a later-deadline (lower-priority) non-preemptable job
/// (eq. 9's leading max term).
Ticks np_blocking(const TaskSet& ts, std::size_t i, Ticks a) {
  const Ticks abs_deadline = sat_add(a, ts[i].D);
  Ticks b = 0;
  for (std::size_t j = 0; j < ts.size(); ++j) {
    if (j == i) continue;
    const Task& tj = ts[j];
    if (tj.D - tj.J > abs_deadline) b = std::max(b, tj.C - 1);
  }
  return b;
}

struct OffsetResult {
  bool converged = false;
  Ticks response = kNoBound;
};

/// r_i(a) for preemptive EDF (eqs. 6).
OffsetResult response_at_offset_preemptive(const TaskSet& ts, std::size_t i, Ticks a, int fuel) {
  const Task& ti = ts[i];
  const Ticks own = sat_mul(floor_div_plus1(a, ti.T), ti.C);  // (1 + ⌊a/T_i⌋)·C_i
  Ticks L = own;
  for (int it = 0; it < fuel; ++it) {
    const Ticks next = sat_add(hp_workload(ts, i, a, L, /*start_time_form=*/false), own);
    if (next == L) return {true, std::max(ti.C, L - a)};
    if (next == kNoBound) return {};
    L = next;
  }
  return {};
}

/// r_i(a) for non-preemptive EDF (eqs. 9).
OffsetResult response_at_offset_nonpreemptive(const TaskSet& ts, std::size_t i, Ticks a,
                                              int fuel) {
  const Task& ti = ts[i];
  const Ticks blocking = np_blocking(ts, i, a);
  const Ticks own_prior = sat_mul(floor_div(a, ti.T), ti.C);  // ⌊a/T_i⌋·C_i
  Ticks L = 0;
  for (int it = 0; it < fuel; ++it) {
    const Ticks next = sat_add(
        blocking, sat_add(hp_workload(ts, i, a, L, /*start_time_form=*/true), own_prior));
    if (next == L) return {true, sat_add(ti.C, std::max<Ticks>(0, L - a))};
    if (next == kNoBound) return {};
    L = next;
  }
  return {};
}

template <typename PerOffsetFn>
EdfRtaResult max_over_offsets(const TaskSet& ts, std::size_t i, const EdfRtaOptions& opt,
                              PerOffsetFn per_offset) {
  EdfRtaResult out;
  if (ts.utilization() > 1.0) return out;  // busy period unbounded: report unschedulable
  const BusyPeriod bp = synchronous_busy_period(ts);
  if (!bp.bounded()) return out;

  const std::vector<Ticks> offsets = edf_candidate_offsets(ts, i, bp.length);
  if (offsets.size() > opt.max_offsets) return out;

  Ticks best = 0;
  Ticks best_a = 0;
  for (const Ticks a : offsets) {
    ++out.offsets_examined;
    const OffsetResult r = per_offset(a);
    if (!r.converged) return out;
    if (r.response > best) {
      best = r.response;
      best_a = a;
    }
  }
  out.converged = true;
  out.response = sat_add(best, ts[i].J);  // measured from event arrival
  out.critical_offset = best_a;
  return out;
}

}  // namespace

EdfRtaResult edf_response_time_preemptive(const TaskSet& ts, std::size_t i,
                                          const EdfRtaOptions& opt) {
  return max_over_offsets(ts, i, opt, [&](Ticks a) {
    return response_at_offset_preemptive(ts, i, a, opt.fixed_point_fuel);
  });
}

EdfRtaResult edf_response_time_nonpreemptive(const TaskSet& ts, std::size_t i,
                                             const EdfRtaOptions& opt) {
  return max_over_offsets(ts, i, opt, [&](Ticks a) {
    return response_at_offset_nonpreemptive(ts, i, a, opt.fixed_point_fuel);
  });
}

// ------------------------------------------------------------ SoA fast path

void edf_candidate_offsets(const TaskSetView& v, std::size_t i, Ticks horizon,
                           std::vector<Ticks>& out) {
  out.clear();
  out.push_back(0);
  const Ticks di = v.D[i];
  for (std::size_t j = 0; j < v.n; ++j) {
    const Ticks base = v.D[j] - v.J[j] - di;
    const Ticks k0 = base >= 0 ? 0 : ceil_div(-base, v.T[j]);
    for (Ticks k = k0;; ++k) {
      const Ticks a = sat_add(sat_mul(k, v.T[j]), base);
      if (a > horizon || a == kNoBound) break;
      out.push_back(a);
    }
  }
  std::ranges::sort(out);
  const auto dup = std::ranges::unique(out);
  out.erase(dup.begin(), dup.end());
}

namespace {

/// W_i(a, t) / W*_i(a, t) over the view (abs_deadline = a + D_i, hoisted).
Ticks hp_workload_view(const TaskSetView& v, std::size_t i, Ticks abs_deadline, Ticks t,
                       bool start_time_form) {
  Ticks sum = 0;
  for (std::size_t j = 0; j < v.n; ++j) {
    if (j == i) continue;
    if (v.D[j] - v.J[j] > abs_deadline) continue;
    const Ticks by_deadline = floor_div_plus1(abs_deadline - v.D[j] + v.J[j], v.T[j]);
    const Ticks by_time = start_time_form ? floor_div_plus1(sat_add(t, v.J[j]), v.T[j])
                                          : ceil_div_plus(sat_add(t, v.J[j]), v.T[j]);
    sum = sat_add(sum, sat_mul(std::min(by_time, by_deadline), v.C[j]));
  }
  return sum;
}

}  // namespace

EdfOffsetFixedPoint edf_offset_fixed_point(const TaskSetView& v, std::size_t i, Ticks abs_deadline,
                                           Ticks base, Ticks seed, bool start_time_form, int fuel) {
  if (const simd::Kernels* k = v.simd_ok ? simd::active() : nullptr) {
    const simd::EdfOffsetResult r =
        k->edf_offset_fixed_point(v.C, v.T, v.D, v.J, v.recip_t, v.n_padded, i, abs_deadline,
                                  base, seed, start_time_form, fuel);
    if (r.status == simd::Status::kOk) return {r.converged, r.fixed_point};
  }
  Ticks L = seed;
  for (int it = 0; it < fuel; ++it) {
    const Ticks next = sat_add(base, hp_workload_view(v, i, abs_deadline, L, start_time_form));
    if (next == L) return {true, L};
    if (next == kNoBound) return {};
    L = next;
  }
  return {};
}

namespace {

/// OffsetResult plus the converged L(a) (the next offset's warm seed).
struct OffsetOutcomeView {
  bool converged = false;
  Ticks response = kNoBound;
  Ticks fixed_point = 0;
};

OffsetOutcomeView offset_preemptive_view(const TaskSetView& v, std::size_t i, Ticks a, int fuel,
                                         Ticks warm_l) {
  const Ticks own = sat_mul(floor_div_plus1(a, v.T[i]), v.C[i]);
  const EdfOffsetFixedPoint fp = edf_offset_fixed_point(
      v, i, sat_add(a, v.D[i]), own, std::max(own, warm_l), /*start_time_form=*/false, fuel);
  if (!fp.converged) return {};
  return {true, std::max(v.C[i], fp.value - a), fp.value};
}

OffsetOutcomeView offset_nonpreemptive_view(const TaskSetView& v, std::size_t i, Ticks a,
                                            int fuel) {
  const Ticks abs_deadline = sat_add(a, v.D[i]);
  Ticks blocking = 0;
  for (std::size_t j = 0; j < v.n; ++j) {
    if (j == i) continue;
    if (v.D[j] - v.J[j] > abs_deadline) blocking = std::max(blocking, v.C[j] - 1);
  }
  // base = blocking + own_prior: sat_add over non-negative terms is
  // order-insensitive, so folding it up front matches the reference sum.
  const Ticks own_prior = sat_mul(floor_div(a, v.T[i]), v.C[i]);
  const EdfOffsetFixedPoint fp = edf_offset_fixed_point(
      v, i, abs_deadline, sat_add(blocking, own_prior), /*seed=*/0, /*start_time_form=*/true, fuel);
  if (!fp.converged) return {};
  return {true, sat_add(v.C[i], std::max<Ticks>(0, fp.value - a)), fp.value};
}

/// Shared candidate-deadline set: every s = k·T_j + D_j − J_j within
/// [0, limit], sorted and deduplicated. Task i's candidate offsets are
/// exactly {0} ∪ {s − D_i : s ∈ S, D_i <= s <= horizon + D_i} — the map
/// a = s − D_i is a bijection between the reference's per-task candidates
/// and the slice elements — so one sort serves all tasks where the
/// reference sorts once per task. Requires limit = horizon + max_j D_j to
/// be unsaturated (callers fall back to per-task generation otherwise: a
/// saturated limit would make this enumeration run to kNoBound even when
/// every per-task horizon is small).
void shared_candidate_deadlines(const TaskSetView& v, Ticks limit, std::vector<Ticks>& out) {
  out.clear();
  for (std::size_t j = 0; j < v.n; ++j) {
    const Ticks base = v.D[j] - v.J[j];
    const Ticks k0 = base >= 0 ? 0 : ceil_div(-base, v.T[j]);
    for (Ticks k = k0;; ++k) {
      const Ticks s = sat_add(sat_mul(k, v.T[j]), base);
      if (s > limit || s == kNoBound) break;
      out.push_back(s);
    }
  }
  std::ranges::sort(out);
  const auto dup = std::ranges::unique(out);
  out.erase(dup.begin(), dup.end());
}

/// max_a r_i(a) over the offsets produced (in ascending order) by
/// `for_each_offset(visit)`, which must call visit per offset and stop when
/// it returns false. Folds exactly like the reference max_over_offsets.
template <typename OffsetsFn>
EdfRtaResult edf_scan_offsets(const TaskSetView& v, std::size_t i, bool preemptive, int fuel,
                              OffsetsFn for_each_offset) {
  EdfRtaResult r;
  Ticks best = 0;
  Ticks best_a = 0;
  Ticks warm_l = 0;
  bool ok = true;
  for_each_offset([&](Ticks a) {
    ++r.offsets_examined;
    const OffsetOutcomeView o = preemptive
                                    ? offset_preemptive_view(v, i, a, fuel, warm_l)
                                    : offset_nonpreemptive_view(v, i, a, fuel);
    if (!o.converged) {
      ok = false;
      return false;
    }
    if (preemptive) warm_l = o.fixed_point;
    if (o.response > best) {
      best = o.response;
      best_a = a;
    }
    return true;
  });
  if (ok) {
    r.converged = true;
    r.response = sat_add(best, v.J[i]);
    r.critical_offset = best_a;
  }
  return r;
}

/// |{k ≥ 0 : lo ≤ k·T + b ≤ hi}| — how many entries one task contributes to
/// a candidate enumeration, counted without enumerating.
Ticks lattice_count(Ticks b, Ticks T, Ticks lo, Ticks hi) {
  const Ticks k_lo = std::max<Ticks>(0, ceil_div(sat_add(lo, -b), T));
  const Ticks k_hi = floor_div(sat_add(hi, -b), T);
  return k_hi >= k_lo ? sat_add(k_hi - k_lo, 1) : 0;
}

/// True when the shared candidate set over [0, limit] is no larger than the
/// per-task windows [D_i, horizon + D_i] together (sizes before
/// deduplication). Where deadlines dwarf the busy period the shared set
/// spans max_j D_j worth of releases while each window spans only the busy
/// period, so the per-task route is the one that stays small.
bool shared_set_pays(const TaskSetView& v, Ticks horizon, Ticks limit) {
  Ticks shared = 0;
  Ticks windows = 0;
  for (std::size_t j = 0; j < v.n; ++j) {
    const Ticks b = v.D[j] - v.J[j];
    shared = sat_add(shared, lattice_count(b, v.T[j], 0, limit));
    for (std::size_t i = 0; i < v.n; ++i) {
      windows = sat_add(windows, lattice_count(b, v.T[j], v.D[i], sat_add(horizon, v.D[i])));
    }
  }
  return shared <= windows;
}

/// Whole-set driver shared by the EdfAnalysis and EdfCellResult entry
/// points: binds the view, hoists the per-task guards (the reference
/// evaluates them per task, but they are task-independent — identical
/// verdict either way), builds the shared candidate set when it is the
/// smaller enumeration, and hands each task's EdfRtaResult to
/// `sink(i, r, D_i)`.
template <typename SinkFn>
void analyze_edf_common(const TaskSet& ts, const EdfRtaOptions& opt, RtaScratch& scratch,
                        bool warm_start, bool preemptive, int& busy_iterations, SinkFn sink) {
  const TaskSetView& v = scratch.arena.bind(ts);
  const bool overloaded = v.utilization() > 1.0;
  BusyPeriod bp;
  if (!overloaded) {
    bp = synchronous_busy_period(v, 1 << 20, warm_start ? scratch.warm_busy : 0);
    if (bp.bounded()) scratch.warm_busy = bp.length;
    busy_iterations = bp.iterations;
  }
  const bool have_horizon = !overloaded && bp.bounded();

  Ticks max_d = 0;
  for (std::size_t j = 0; j < v.n; ++j) max_d = std::max(max_d, v.D[j]);
  const Ticks limit = have_horizon ? sat_add(bp.length, max_d) : kNoBound;
  const bool shared = have_horizon && limit != kNoBound && shared_set_pays(v, bp.length, limit);
  if (shared) shared_candidate_deadlines(v, limit, scratch.offsets);
  const std::vector<Ticks>& cand = scratch.offsets;

  for (std::size_t i = 0; i < v.n; ++i) {
    EdfRtaResult r;
    if (have_horizon) {
      if (shared) {
        const Ticks di = v.D[i];
        const auto lo = std::lower_bound(cand.begin(), cand.end(), di);
        const auto hi = std::upper_bound(lo, cand.end(), sat_add(bp.length, di));
        // Offset 0 is prepended; the slice's first element re-yields it when
        // s == D_i, so the deduplicated count drops by one in that case.
        const bool dup0 = lo != hi && *lo == di;
        const std::size_t n_offsets =
            1 + static_cast<std::size_t>(hi - lo) - static_cast<std::size_t>(dup0);
        if (n_offsets <= opt.max_offsets) {
          r = edf_scan_offsets(v, i, preemptive, opt.fixed_point_fuel, [&](auto visit) {
            if (!visit(Ticks{0})) return;
            for (auto it = lo; it != hi; ++it) {
              const Ticks a = *it - di;
              if (a == 0) continue;
              if (!visit(a)) return;
            }
          });
        }
      } else {
        edf_candidate_offsets(v, i, bp.length, scratch.offsets);
        if (scratch.offsets.size() <= opt.max_offsets) {
          r = edf_scan_offsets(v, i, preemptive, opt.fixed_point_fuel, [&](auto visit) {
            for (const Ticks a : scratch.offsets) {
              if (!visit(a)) return;
            }
          });
        }
      }
    }
    sink(i, r, v.D[i]);
  }
}

EdfAnalysis analyze_view_edf(const TaskSet& ts, const EdfRtaOptions& opt, RtaScratch& scratch,
                             bool warm_start, bool preemptive) {
  EdfAnalysis out;
  out.per_task.resize(ts.size());
  out.schedulable = true;
  analyze_edf_common(ts, opt, scratch, warm_start, preemptive, out.busy_iterations,
                     [&](std::size_t i, const EdfRtaResult& r, Ticks d) {
                       out.per_task[i] = r;
                       if (!r.meets(d)) out.schedulable = false;
                     });
  return out;
}

}  // namespace

EdfCellResult analyze_edf_cell(const TaskSet& ts, bool preemptive, const EdfRtaOptions& opt,
                               RtaScratch& scratch, bool warm_start) {
  EdfCellResult out;
  out.schedulable = true;
  Ticks worst = 0;
  analyze_edf_common(ts, opt, scratch, warm_start, preemptive, out.busy_iterations,
                     [&](std::size_t, const EdfRtaResult& r, Ticks d) {
                       out.offsets_examined += static_cast<std::uint64_t>(r.offsets_examined);
                       worst = (!r.converged || worst == kNoBound) ? kNoBound
                                                                   : std::max(worst, r.response);
                       if (!r.meets(d)) out.schedulable = false;
                     });
  out.worst_response = worst;
  return out;
}

EdfAnalysis analyze_preemptive_edf(const TaskSet& ts, const EdfRtaOptions& opt) {
  RtaScratch scratch;
  return analyze_view_edf(ts, opt, scratch, /*warm_start=*/false, /*preemptive=*/true);
}

EdfAnalysis analyze_nonpreemptive_edf(const TaskSet& ts, const EdfRtaOptions& opt) {
  RtaScratch scratch;
  return analyze_view_edf(ts, opt, scratch, /*warm_start=*/false, /*preemptive=*/false);
}

EdfAnalysis analyze_preemptive_edf(const TaskSet& ts, const EdfRtaOptions& opt,
                                   RtaScratch& scratch, bool warm_start) {
  return analyze_view_edf(ts, opt, scratch, warm_start, /*preemptive=*/true);
}

EdfAnalysis analyze_nonpreemptive_edf(const TaskSet& ts, const EdfRtaOptions& opt,
                                      RtaScratch& scratch, bool warm_start) {
  return analyze_view_edf(ts, opt, scratch, warm_start, /*preemptive=*/false);
}

}  // namespace profisched
