// response_time_edf.hpp — worst-case response-time analysis under EDF
// (§2.2, paper eqs. 6–10).
//
// Spuri showed that under EDF the critical instant is *not* necessarily the
// synchronous release: the worst case for task i appears inside a "deadline
// busy period" in which all other tasks are released synchronously and at
// maximum rate, while i's analysed instance is released at some offset a >= 0
// (with i's earlier instances released as soon as possible).
//
// Preemptive (eqs. 6–8):
//     r_i(a) = max{ C_i, L_i(a) − a }
//     L_i^{m+1}(a) = W_i(a, L_i^m(a)) + (1 + ⌊a/T_i⌋) · C_i
//     W_i(a, t) = Σ_{j≠i, D_j−J_j <= a+D_i}
//                   min{ ⌈(t+J_j)/T_j⌉, 1 + ⌊(a + D_i − D_j + J_j)/T_j⌋ } · C_j
//     R_i = J_i + max_{a ∈ A} r_i(a)
//
// Non-preemptive (eqs. 9–10): a later-deadline instance can block, and the
// busy period of interest is the one preceding the *start* of execution:
//     r_i(a) = C_i + max{ 0, L_i(a) − a }
//     L_i^{m+1}(a) = max_{D_j−J_j > a+D_i}{C_j − 1}
//                    + W*_i(a, L_i^m(a)) + ⌊a/T_i⌋ · C_i
//     W*_i(a, t) = Σ_{j≠i, D_j−J_j <= a+D_i}
//                   min{ 1 + ⌊(t+J_j)/T_j⌋, 1 + ⌊(a + D_i − D_j + J_j)/T_j⌋ } · C_j
//
// Candidate offsets (eqs. 8/10): A = ∪_j { k·T_j + D_j − J_j − D_i : k ∈ ℕ }
// ∩ [0, L], where L is the synchronous busy period — the maximum length of
// any deadline busy period, hence a valid (if slightly generous) horizon.
//
// Release jitter terms follow Spuri's holistic analysis [34]; with all J = 0
// the formulas reduce exactly to the paper's. With every C replaced by
// T_cycle the non-preemptive recurrence is the PROFIBUS message analysis of
// §4.3. profibus/edf_analysis.hpp binds each master's streams into a
// TaskSetArena view (TaskSetArena::bind_columns, C = T_cycle) and shares the
// view-level pieces declared below: edf_candidate_offsets and
// edf_offset_fixed_point (hence the vector kernel). Its blocking term
// (T_cycle rather than max C_j − 1), its busy-period horizon and its offset
// scan stay its own.
#pragma once

#include <cstdint>
#include <vector>

#include "core/busy_period.hpp"
#include "core/task.hpp"
#include "core/taskset_view.hpp"

namespace profisched {

/// Outcome of an EDF worst-case response-time computation for one task.
struct EdfRtaResult {
  bool converged = false;      ///< false => horizon/iteration budget exhausted
  Ticks response = kNoBound;   ///< worst-case response time (from event arrival)
  Ticks critical_offset = 0;   ///< the offset a achieving the maximum
  std::size_t offsets_examined = 0;

  [[nodiscard]] bool meets(Ticks deadline) const noexcept {
    return converged && response <= deadline;
  }
};

/// Per-set EDF analysis outcome.
struct EdfAnalysis {
  std::vector<EdfRtaResult> per_task;
  bool schedulable = false;
  /// Iterations the (set-wide) synchronous busy-period fixed point took; 0
  /// when the set was rejected before computing it. Warm-started calls
  /// report fewer — the observable the benchmark-regression harness tracks.
  int busy_iterations = 0;
};

/// Options bounding the (potentially large) offset enumeration.
struct EdfRtaOptions {
  std::size_t max_offsets = 1 << 22;  ///< abort (converged=false) beyond this
  int fixed_point_fuel = 1 << 16;     ///< per-offset iteration bound
};

/// Candidate offsets A for task i within [0, horizon] (paper eqs. 8 and 10).
[[nodiscard]] std::vector<Ticks> edf_candidate_offsets(const TaskSet& ts, std::size_t i,
                                                       Ticks horizon);

/// Worst-case response time of task i under preemptive EDF (eqs. 6–8).
[[nodiscard]] EdfRtaResult edf_response_time_preemptive(const TaskSet& ts, std::size_t i,
                                                        const EdfRtaOptions& opt = {});

/// Worst-case response time of task i under non-preemptive EDF (eqs. 9–10).
[[nodiscard]] EdfRtaResult edf_response_time_nonpreemptive(const TaskSet& ts, std::size_t i,
                                                           const EdfRtaOptions& opt = {});

/// Whole-set analyses. These run on the SoA fast path (shared busy period,
/// reused offset buffers, warm-started per-offset fixed points — see the
/// scratch overloads below); the per-task functions above are the retained
/// references, and the two agree bit-for-bit
/// (tests/core/test_kernel_equivalence.cpp). One caveat scopes that claim:
/// a warm-seeded iteration starts closer to the fixed point, so with a fuel
/// budget the reference exhausts mid-climb the fast path could still
/// converge where the reference gave up. Identity therefore assumes fuel
/// large enough for the reference to converge or saturate (the 1 << 16
/// default; a fuel-bound verdict is a resource limit, not an analysis
/// result).
[[nodiscard]] EdfAnalysis analyze_preemptive_edf(const TaskSet& ts, const EdfRtaOptions& opt = {});
[[nodiscard]] EdfAnalysis analyze_nonpreemptive_edf(const TaskSet& ts,
                                                    const EdfRtaOptions& opt = {});

// ---------------------------------------------------------- SoA fast path
//
// Optimizations over the reference, all output-preserving:
//  * the synchronous busy period is computed once per set, not once per task
//    (it does not depend on the analysed task), and can be warm-started from
//    scratch.warm_busy across compatible calls (`warm_start`, usweep
//    contract: same structure, parameters only grown);
//  * candidate offsets land in a reused scratch buffer;
//  * preemptive only: the offset scan seeds each offset's fixed point L(a)
//    from the previous offset's converged value — L(a) is monotone
//    non-decreasing in a (W_i(a,t) and the own-instance term only grow with
//    a), so the seed is a valid lower bound and the least fixed point
//    reached is unchanged. The non-preemptive scan here stays cold: its
//    blocking term max C_j − 1 shrinks as a grows. The PROFIBUS form
//    (eq. 18) is the exception that warm-starts: its blocking is binary,
//    T_cycle or 0, and drops only where the last later-deadline stream joins
//    W*_i with at least one T_cycle request, so that recurrence still never
//    decreases in a (see profibus/edf_analysis.hpp);
//  * the shared candidate set is built only when it is no larger than the
//    per-task windows together (counted arithmetically first): where
//    deadlines dwarf the busy period it would enumerate max_j D_j worth of
//    releases, and the per-task route is taken instead.
[[nodiscard]] EdfAnalysis analyze_preemptive_edf(const TaskSet& ts, const EdfRtaOptions& opt,
                                                 RtaScratch& scratch, bool warm_start = false);
[[nodiscard]] EdfAnalysis analyze_nonpreemptive_edf(const TaskSet& ts, const EdfRtaOptions& opt,
                                                    RtaScratch& scratch,
                                                    bool warm_start = false);

/// Candidate offsets of view task i within [0, horizon] into a reused
/// buffer: the same sorted, deduplicated set edf_candidate_offsets(ts, …)
/// returns for the TaskSet the view was bound from.
void edf_candidate_offsets(const TaskSetView& v, std::size_t i, Ticks horizon,
                           std::vector<Ticks>& out);

/// Outcome of one offset's fixed point L_i(a).
struct EdfOffsetFixedPoint {
  bool converged = false;
  Ticks value = 0;  ///< the least fixed point L_i(a) when converged
};

/// Least fixed point of L → base + W_i(a, L) over view task i, with
/// abs_deadline = a + D_i and W the preemptive workload (eq. 6), or W* when
/// start_time_form (eqs. 9 / 18). The caller folds its own-instance and
/// blocking terms into `base`. Iterates from `seed`, which must not exceed
/// the least fixed point (0 always qualifies); a valid seed reaches the same
/// fixed point in no more iterations. Runs the vector kernel when the view
/// passes its gate, the scalar recurrence otherwise or on kFallback.
/// Not converged: divergence to kNoBound or `fuel` exhausted.
[[nodiscard]] EdfOffsetFixedPoint edf_offset_fixed_point(const TaskSetView& v, std::size_t i,
                                                         Ticks abs_deadline, Ticks base, Ticks seed,
                                                         bool start_time_form, int fuel);

/// Whole-set outcome folded down to what a sweep cell needs — exactly what
/// run_usweep derives from an EdfAnalysis, computed without materializing
/// the per-task vector so a warm sweep step performs zero allocations. The
/// fold is order-independent (sticky kNoBound, max over responses, summed
/// counters), hence bit-identical to folding analyze_*_edf's per_task.
struct EdfCellResult {
  bool schedulable = false;
  Ticks worst_response = 0;  ///< kNoBound if any task failed to converge
  int busy_iterations = 0;
  std::uint64_t offsets_examined = 0;  ///< Σ per-task offsets examined
};

[[nodiscard]] EdfCellResult analyze_edf_cell(const TaskSet& ts, bool preemptive,
                                             const EdfRtaOptions& opt, RtaScratch& scratch,
                                             bool warm_start);

}  // namespace profisched
