// fcfs_analysis.hpp — worst-case response time of PROFIBUS high-priority
// messages under the standard FCFS outgoing queue (§3.2, paper eqs. 11–12).
//
// Because a master transmits at least one HP message per token visit, and at
// most nh^k messages can be pending (one per stream — two pending requests of
// the same stream would already imply a missed deadline), a request queued
// behind every other stream's request needs nh^k token visits:
//
//     Q_i^k = nh^k · T_cycle − Ch_i^k,      R_i^k = Q_i^k + Ch_i^k
//           => R_i^k = nh^k · T_cycle                                   (11)
//
// and the stream set is schedulable iff Dh_i^k >= R_i^k for every stream of
// every master (12). Note R is identical for every stream of a master — FCFS
// cannot favour tight deadlines, which is precisely the limitation §4
// removes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/taskset_view.hpp"
#include "profibus/token_ring_analysis.hpp"

namespace profisched::profibus {

/// Per-stream analysis record.
struct StreamResponse {
  Ticks Q = kNoBound;         ///< worst-case queuing delay
  Ticks response = kNoBound;  ///< worst-case response time R
  bool meets_deadline = false;
};

/// Per-master analysis record.
struct MasterAnalysis {
  std::vector<StreamResponse> streams;  ///< indexed like Master::high_streams
  bool schedulable = false;
};

/// Whole-network verdict.
struct NetworkAnalysis {
  std::vector<MasterAnalysis> masters;
  bool schedulable = false;
  Ticks tcycle = 0;  ///< the T_cycle used (eq. 14)
};

/// Reusable per-worker scratch for the network analyses: the buffers
/// analyze_dm / analyze_edf would otherwise allocate per master (or per
/// stream) per call. One instance per thread — the engine keeps one per
/// AnalysisEngine — makes repeated analyses allocation-free in steady state.
/// Results are identical with or without.
struct AnalysisScratch {
  std::vector<std::size_t> ranks;  ///< DM deadline-rank permutation buffer
  std::vector<Ticks> offsets;      ///< EDF candidate-offset buffer
  TaskSetArena arena;              ///< EDF per-master SoA view (C = T_cycle)
  /// Running total of the offsets analyze_edf examined; the caller drains it
  /// (AnalysisEngine publishes it as analysis.edf.offsets_examined).
  std::uint64_t edf_offsets_examined = 0;
};

/// FCFS analysis of the whole network (eqs. 11–12).
[[nodiscard]] NetworkAnalysis analyze_fcfs(const Network& net,
                                           TcycleMethod method = TcycleMethod::PaperEq13);

/// Memoized form: reuse a precomputed TimingMemo (see compute_timing) instead
/// of re-deriving T_del / T_cycle for this call.
[[nodiscard]] NetworkAnalysis analyze_fcfs(const Network& net, const TimingMemo& memo);

/// Verdict-only form: exactly analyze_fcfs(net, memo).schedulable, false at
/// the first missing stream, with no NetworkAnalysis built.
[[nodiscard]] bool fcfs_schedulable(const Network& net, const TimingMemo& memo);

}  // namespace profisched::profibus
