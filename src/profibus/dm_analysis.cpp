#include "profibus/dm_analysis.hpp"

#include <vector>

#include "profibus/detail/fp_message_rta.hpp"

namespace profisched::profibus {

NetworkAnalysis analyze_dm(const Network& net, TcycleMethod method, Formulation form, int fuel) {
  return analyze_dm(net, compute_timing(net, method), form, fuel);
}

NetworkAnalysis analyze_dm(const Network& net, const TimingMemo& memo, Formulation form,
                           int fuel, AnalysisScratch* scratch) {
  net.validate();
  NetworkAnalysis out;
  out.tcycle = memo.tcycle;
  out.schedulable = true;

  const std::vector<Ticks>& tc = memo.per_master;
  out.masters.resize(net.n_masters());

  std::vector<std::size_t> local_ranks;
  std::vector<std::size_t>& by_deadline = scratch != nullptr ? scratch->ranks : local_ranks;

  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    const Master& master = net.masters[k];
    MasterAnalysis& ma = out.masters[k];
    ma.schedulable = true;
    ma.streams.resize(master.nh());

    detail::deadline_monotonic_order(master, by_deadline);
    for (std::size_t rank = 0; rank < by_deadline.size(); ++rank) {
      const std::size_t i = by_deadline[rank];
      ma.streams[i] =
          detail::fp_stream_response(master, by_deadline, rank, tc[k], form, fuel, kNoBound);
      if (!ma.streams[i].meets_deadline) ma.schedulable = false;
    }
    if (!ma.schedulable) out.schedulable = false;
  }
  return out;
}

bool dm_schedulable(const Network& net, const TimingMemo& memo, Formulation form, int fuel,
                    AnalysisScratch& scratch) {
  net.validate();
  std::vector<std::size_t>& by_deadline = scratch.ranks;
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    const Master& master = net.masters[k];
    const Ticks tcycle = memo.per_master[k];
    detail::deadline_monotonic_order(master, by_deadline);
    for (std::size_t rank = 0; rank < by_deadline.size(); ++rank) {
      const Ticks deadline = master.high_streams[by_deadline[rank]].D;
      const StreamResponse r =
          detail::fp_stream_response(master, by_deadline, rank, tcycle, form, fuel, deadline);
      if (!r.meets_deadline) return false;
    }
  }
  return true;
}

}  // namespace profisched::profibus
