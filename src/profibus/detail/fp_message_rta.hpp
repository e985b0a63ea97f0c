// detail/fp_message_rta.hpp — the eq.-16 per-stream fixed point, shared by
// the DM analysis, its verdict and the arbitrary-order / OPA analyses.
// Internal header.
#pragma once

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/formulation.hpp"
#include "profibus/fcfs_analysis.hpp"

namespace profisched::profibus::detail {

/// Deadline-monotonic order of `master`'s streams (ties by index) into a
/// reused buffer. Sorting with the index tie-break yields the stable order
/// without stable_sort's temporary buffer.
inline void deadline_monotonic_order(const Master& master, std::vector<std::size_t>& order) {
  order.resize(master.nh());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::ranges::sort(order, [&](std::size_t a, std::size_t b) {
    const Ticks da = master.high_streams[a].D, db = master.high_streams[b].D;
    return da < db || (da == db && a < b);
  });
}

/// Response time of the stream at position `rank` of `order` (highest
/// priority first) within `master`, under the eq.-16 model: one T_cycle per
/// service slot, blocking T* = T_cycle unless the stream is the master's
/// lowest-priority one, jitter-inflated interference from higher-priority
/// streams.
///
/// `ceiling` bounds the response the caller still cares about: once an
/// iterate w has w + T_cycle > ceiling the iteration stops and the stream is
/// reported as not converged (meets_deadline false). Exactness: every
/// interference term of f(w⁰) counts at least one job, so w⁰ <= f(w⁰); f is
/// monotone, so the iterates climb and never pass the least fixed point
/// above w⁰, the one the unbounded iteration would return. That fixed point,
/// if it exists at all, is at least w. With ceiling = D_i the stream misses
/// whether or not the iteration would later converge within `fuel`, and
/// meets_deadline is exactly the unbounded one. Full analyses, which report
/// R, pass kNoBound.
inline StreamResponse fp_stream_response(const Master& master,
                                         const std::vector<std::size_t>& order,
                                         std::size_t rank, Ticks tcycle, Formulation form,
                                         int fuel, Ticks ceiling) {
  StreamResponse out;
  const MessageStream& si = master.high_streams[order[rank]];

  const bool has_lower = rank + 1 < order.size();
  const Ticks blocking = has_lower ? tcycle : 0;

  Ticks w = sat_add(blocking, sat_mul(static_cast<Ticks>(rank), tcycle));
  for (int it = 0; it < fuel; ++it) {
    Ticks next = blocking;
    for (std::size_t p = 0; p < rank; ++p) {
      const MessageStream& sj = master.high_streams[order[p]];
      const Ticks arg = sat_add(w, sj.J);
      const Ticks jobs = (form == Formulation::PaperLiteral) ? ceil_div_plus(arg, sj.T)
                                                             : floor_div_plus1(arg, sj.T);
      next = sat_add(next, sat_mul(jobs, tcycle));
    }
    if (next == w) {
      out.Q = w;
      out.response = sat_add(w, tcycle);
      out.meets_deadline = out.response != kNoBound && out.response <= si.D;
      return out;
    }
    if (next == kNoBound || sat_add(next, tcycle) > ceiling) break;
    w = next;
  }
  return out;  // diverged, or past the ceiling
}

}  // namespace profisched::profibus::detail
