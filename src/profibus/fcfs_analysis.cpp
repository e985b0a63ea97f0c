#include "profibus/fcfs_analysis.hpp"

namespace profisched::profibus {

namespace {

/// Eq. 11: R = nh·T_cycle for every stream of the master.
Ticks fcfs_response(const Master& master, Ticks tcycle) {
  return sat_mul(static_cast<Ticks>(master.nh()), tcycle);
}

/// Eq. 12.
bool fcfs_meets(Ticks response, const MessageStream& s) {
  return response != kNoBound && response <= s.D;
}

}  // namespace

NetworkAnalysis analyze_fcfs(const Network& net, TcycleMethod method) {
  return analyze_fcfs(net, compute_timing(net, method));
}

NetworkAnalysis analyze_fcfs(const Network& net, const TimingMemo& memo) {
  net.validate();
  NetworkAnalysis out;
  out.tcycle = memo.tcycle;
  out.schedulable = true;

  const std::vector<Ticks>& tc = memo.per_master;
  out.masters.resize(net.n_masters());

  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    const Master& master = net.masters[k];
    MasterAnalysis& ma = out.masters[k];
    ma.schedulable = true;
    ma.streams.resize(master.nh());

    const Ticks response = fcfs_response(master, tc[k]);
    for (std::size_t i = 0; i < master.nh(); ++i) {
      const MessageStream& s = master.high_streams[i];
      StreamResponse& r = ma.streams[i];
      r.response = response;
      r.Q = sat_add(r.response, -s.Ch);  // Q = nh·T_cycle − Ch
      r.meets_deadline = fcfs_meets(response, s);
      if (!r.meets_deadline) ma.schedulable = false;
    }
    if (!ma.schedulable) out.schedulable = false;
  }
  return out;
}

bool fcfs_schedulable(const Network& net, const TimingMemo& memo) {
  net.validate();
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    const Master& master = net.masters[k];
    const Ticks response = fcfs_response(master, memo.per_master[k]);
    for (const MessageStream& s : master.high_streams) {
      if (!fcfs_meets(response, s)) return false;
    }
  }
  return true;
}

}  // namespace profisched::profibus
