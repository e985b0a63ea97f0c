// edf_analysis.hpp — worst-case message response time with an EDF-ordered
// priority queue at the application-process level (§4.3, paper eqs. 17–18).
//
// Same architecture as dm_analysis.hpp, but the AP queue is ordered by the
// earliness of each request's absolute deadline. The paper adapts the
// non-preemptive EDF response-time analysis (eqs. 9–10) by replacing every C
// with T_cycle — one token visit serves one request — and the blocking max
// with T*_cycle:
//
//   R_i(a) = max{ T_cycle, T_cycle + L_i(a) − a }                      (17)
//   L_i^{m+1}(a) = T*_cycle(a) + W_i(a, L_i^m(a)) + ⌊a/T_i⌋·T_cycle
//   W_i(a, t)  = Σ_{j≠i, D_j−J_j <= a+D_i}
//                 min{ 1 + ⌊(t+J_j)/T_j⌋,
//                      1 + ⌊(a + D_i − D_j + J_j)/T_j⌋ } · T_cycle      (18)
//
// with T*_cycle(a) = T_cycle when some other stream can have a pending
// request with a *later* absolute deadline (∃ j : D_j − J_j > a + D_i) —
// that request may occupy the one-deep stack queue when ours arrives — and 0
// otherwise (the EDF analogue of eq. 16's lowest-priority exception).
//
// Candidate offsets follow eq. 10's set, shifted by jitter:
// a ∈ ∪_j { k·T_j + D_j − J_j − D_i } ∩ [0, L], with L the synchronous busy
// period of the master's streams under one-T_cycle-per-request service. If
// Σ_i T_cycle/T_i > 1 for a master, its busy period is unbounded and the
// master is reported unschedulable under the EDF queue (token visits cannot
// keep up with request arrivals). At exactly 1 the busy period may still
// close (T_i = nh·T_cycle without jitter gives L = nh·T_cycle).
//
// Busy-period short-circuit. The busy period is returned as unbounded at
// once when the double sum u = Σ_i T_cycle/T_i exceeds 1 + 1e-9 — more than
// the sum's rounding (about n·2⁻⁵³ for n terms) can explain, so the exact u
// exceeds 1 too. The exact iteration then provably diverges: ⌈(L+J_i)/T_i⌉
// >= L/T_i gives L_{n+1} >= u·L_n > L_n from L⁰ = nh·T_cycle > 0, so it
// never repeats and ends in saturation or fuel exhaustion — kNoBound either
// way, for every fuel. At u = 1 exactly, and within the margin, the
// iteration runs as before. edf_busy_periods, analyze_edf and
// edf_schedulable share this one function.
//
// As with DM, R_i is measured from AP-queue insertion; g/J_i belong to the
// end-to-end bound of §4.2.
//
// Implementation. Eq. 18 is the non-preemptive EDF offset recurrence of
// core/response_time_edf.hpp with every C_j = T_cycle, so analyze_edf binds
// each master once per call into a padded SoA view (TaskSetArena, owned by
// AnalysisScratch) and runs each offset's fixed point through core's
// edf_offset_fixed_point — the vector kernel when the view passes its gate
// (every T_j >= T_cycle among others), the scalar recurrence otherwise.
// What is network-specific lives in the kernel's `base` argument,
// T*_cycle(a) + ⌊a/T_i⌋·T_cycle, and in eq. 17's fold.
// T*_cycle(a) costs O(1): stream i's own D_i − J_i never exceeds a + D_i,
// so the master-wide max_j(D_j − J_j) decides it for every stream.
//
// Warm-started offset scan. Offsets are scanned in ascending order, and
// the recurrence f_a(L) = T*_cycle(a) + W_i(a, L) + ⌊a/T_i⌋·T_cycle never
// decreases as a grows:
//  * ⌊a/T_i⌋·T_cycle and W_i(a, t) never decrease — the set of
//    earlier-deadline streams and each min's deadline cap only grow;
//  * T*_cycle(a) steps down at most once, from T_cycle to 0, and only at the
//    offset where the last later-deadline stream j (D_j − J_j > a + D_i
//    before) joins W_i — with min{1 + ⌊(t+J_j)/T_j⌋, 1 + ⌊(a + D_i − D_j +
//    J_j)/T_j⌋} >= 1 request, i.e. at least the T_cycle the blocking term
//    loses.
// So f_a >= f_a' pointwise for a > a', and the previous offset's converged
// L(a') satisfies L(a') = f_a'(L(a')) <= f_a(L(a')) and L(a') <= L(a): it is a
// valid seed, and iterating from it reaches the same least fixed point L(a)
// in no more iterations. Every converged L is exact — kernel or scalar — so
// it seeds the next offset on either path, and no reset is needed.
//
// The scan is one function shared by analyze_edf and edf_schedulable; the
// verdict asks it to stop at the first offset whose response exceeds D_i.
//
// Fuel caveat. A warm seed converges in fewer iterations than the cold
// iteration from 0. Results are identical to the cold analysis wherever the
// cold iteration converges or diverges within `fuel` (the 1 << 16 default);
// where the cold iteration would exhaust its fuel mid-climb, the warm scan
// may still converge. That is the contract of core's preemptive warm path:
// a fuel-bound verdict is a resource limit, not an analysis result.
#pragma once

#include "profibus/fcfs_analysis.hpp"

namespace profisched::profibus {

/// Per-stream extension of StreamResponse with the critical offset found.
struct EdfStreamDetail {
  Ticks critical_offset = 0;
  std::size_t offsets_examined = 0;
};

/// EDF-queue analysis of the whole network (eqs. 17–18).
/// `detail`, when non-null, receives per-master per-stream diagnostics with
/// the same indexing as the returned analysis.
[[nodiscard]] NetworkAnalysis analyze_edf(
    const Network& net, TcycleMethod method = TcycleMethod::PaperEq13,
    std::vector<std::vector<EdfStreamDetail>>* detail = nullptr, int fuel = 1 << 16);

/// Per-master synchronous busy period under one-T_cycle-per-request service
/// (the offset-candidate horizon of eq. 10): L = Σ_i ⌈(L + J_i)/T_i⌉·T_cycle.
/// kNoBound where the iteration diverges (token supply < request demand),
/// at once where u > 1 + 1e-9 (the busy-period short-circuit above).
[[nodiscard]] std::vector<Ticks> edf_busy_periods(const Network& net, const TimingMemo& memo,
                                                  int fuel = 1 << 16);

/// Memoized form: reuse a precomputed TimingMemo — and, when `busy` is
/// non-null, precomputed edf_busy_periods — instead of re-deriving them.
/// `scratch`, when non-null, supplies the candidate-offset buffer and the
/// SoA arena, and accumulates the offsets examined (see AnalysisScratch).
[[nodiscard]] NetworkAnalysis analyze_edf(
    const Network& net, const TimingMemo& memo,
    std::vector<std::vector<EdfStreamDetail>>* detail = nullptr, int fuel = 1 << 16,
    const std::vector<Ticks>* busy = nullptr, AnalysisScratch* scratch = nullptr);

/// Verdict-only form: exactly analyze_edf(net, memo, nullptr, fuel)
/// .schedulable, computed with only the work that decides it and without
/// allocating in steady state (offsets and arena come from `scratch`, and no
/// NetworkAnalysis is built; the scratch's offset counter is left alone).
/// Three cuts, all exact:
///  * Saturated masters. A master whose busy period is unbounded — up front
///    when u > 1 + 1e-9, see above — fails before any offset is scanned.
///  * First-miss scan. Each stream's warm offset scan returns at the first
///    offset whose response exceeds D_i or whose fixed point does not
///    converge; the full analysis reports that stream as missing too, since
///    its response is the maximum over the offsets.
///  * First-miss exit. The verdict is false at the first missing stream.
/// Fuel contract: the busy period and every offset's fixed point get the
/// same `fuel` as in the full analysis, and the scan replays the full scan's
/// offsets and warm seeds up to the cut, so the verdict agrees with the full
/// analysis for every fuel.
[[nodiscard]] bool edf_schedulable(const Network& net, const TimingMemo& memo, int fuel,
                                   AnalysisScratch& scratch);

}  // namespace profisched::profibus
