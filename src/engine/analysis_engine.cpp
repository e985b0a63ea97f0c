#include "engine/analysis_engine.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "profibus/edf_analysis.hpp"

namespace profisched::engine {

namespace {

using profibus::MasterAnalysis;
using profibus::NetworkAnalysis;
using profibus::StreamResponse;
using profibus::TimingMemo;

/// A NetworkAnalysis with every stream at the "no bound / miss" default —
/// what OPA reports when no fixed priority order schedules the set.
NetworkAnalysis all_miss(const profibus::Network& net, const TimingMemo& memo) {
  NetworkAnalysis na;
  na.tcycle = memo.tcycle;
  na.schedulable = false;
  na.masters.resize(net.n_masters());
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    na.masters[k].schedulable = false;
    na.masters[k].streams.resize(net.masters[k].nh());
  }
  return na;
}

/// Timed-token necessary condition: every request needs at least one full
/// token rotation, so D_i >= T_cycle^k must hold under *any* AP policy.
NetworkAnalysis token_ring_check(const profibus::Network& net, const TimingMemo& memo) {
  NetworkAnalysis na;
  na.tcycle = memo.tcycle;
  na.schedulable = true;
  na.masters.resize(net.n_masters());
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    const profibus::Master& master = net.masters[k];
    MasterAnalysis& ma = na.masters[k];
    ma.schedulable = true;
    ma.streams.resize(master.nh());
    for (std::size_t i = 0; i < master.nh(); ++i) {
      StreamResponse& r = ma.streams[i];
      r.response = memo.per_master[k];  // one token visit, best possible
      r.Q = sat_add(r.response, -master.high_streams[i].Ch);
      r.meets_deadline = r.response != kNoBound && r.response <= master.high_streams[i].D;
      if (!r.meets_deadline) ma.schedulable = false;
    }
    if (!ma.schedulable) na.schedulable = false;
  }
  return na;
}

/// Default transaction set for Policy::Holistic: one single-stage transaction
/// per stream, inheriting its period and deadline.
std::vector<profibus::Transaction> per_stream_transactions(const profibus::Network& net) {
  std::vector<profibus::Transaction> txs;
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    for (std::size_t i = 0; i < net.masters[k].nh(); ++i) {
      const profibus::MessageStream& s = net.masters[k].high_streams[i];
      profibus::Transaction tr;
      tr.stages = {profibus::TransactionStage{.master = k, .stream = i, .task_c = 1}};
      tr.period = s.T;
      tr.deadline = s.D;
      tr.name = s.name;
      txs.push_back(std::move(tr));
    }
  }
  return txs;
}

}  // namespace

namespace {

/// Offsets the EDF analyses examined, published once per analyze_edf call
/// from the scratch accumulator (the per-offset loop stays untouched).
obs::Counter& edf_offsets_counter() {
  static obs::Counter c = obs::Registry::global().counter("analysis.edf.offsets_examined");
  return c;
}

/// Cheap structural fingerprint so an id collision between different
/// networks invalidates the memo instead of serving stale timing.
Ticks network_fingerprint(const profibus::Network& net) {
  Ticks sum = 0;
  for (const profibus::Master& m : net.masters) {
    for (const profibus::MessageStream& s : m.high_streams) {
      sum = sat_add(sum, sat_add(s.Ch, sat_add(s.T, s.D)));
    }
    sum = sat_add(sum, m.longest_low_cycle);
  }
  return sum;
}

}  // namespace

AnalysisEngine::Memo& AnalysisEngine::memo_for(const Scenario& sc) {
  const Ticks fingerprint = network_fingerprint(sc.net);
  const auto it = memo_.find(sc.id);
  if (it != memo_.end() && it->second.n_streams == sc.net.total_high_streams() &&
      it->second.ttr == sc.net.ttr && it->second.fingerprint == fingerprint) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  Memo& m = memo_[sc.id];
  m.timing = profibus::compute_timing(sc.net, opt_.method);
  m.edf_busy.reset();
  m.n_streams = sc.net.total_high_streams();
  m.ttr = sc.net.ttr;
  m.fingerprint = fingerprint;
  return m;
}

const profibus::TimingMemo& AnalysisEngine::timing(const Scenario& sc) {
  return memo_for(sc).timing;
}

Report AnalysisEngine::analyze(const Scenario& sc, Policy policy) {
  // Validate up front: the memoized busy-period and token-ring paths would
  // otherwise touch stream parameters (divide by T, compare against D) before
  // any underlying analysis gets the chance to reject the network.
  sc.net.validate();
  return analyze_with(sc, policy, memo_for(sc));
}

std::vector<Report> AnalysisEngine::analyze_all(const Scenario& sc,
                                                std::span<const Policy> policies) {
  if (policies.empty()) return {};
  sc.net.validate();
  Memo& m = memo_for(sc);
  // Every policy after the first is served from the shared bind — keep the
  // hit counter equivalent to the per-policy analyze() sequence it replaces.
  hits_ += policies.size() - 1;
  std::vector<Report> out;
  out.reserve(policies.size());
  for (const Policy policy : policies) out.push_back(analyze_with(sc, policy, m));
  return out;
}

Report AnalysisEngine::analyze_with(const Scenario& sc, Policy policy, Memo& m) {
  const TimingMemo& tm = m.timing;

  Report r;
  r.policy = policy;
  r.tcycle = tm.tcycle;
  r.tdel = tm.tdel;

  switch (policy) {
    case Policy::Fcfs:
      r.detail = analyze_fcfs(sc.net, tm);
      r.schedulable = r.detail.schedulable;
      break;
    case Policy::Dm:
      r.detail = analyze_dm(sc.net, tm, opt_.formulation, opt_.fuel, &scratch_);
      r.schedulable = r.detail.schedulable;
      break;
    case Policy::Edf:
      if (!m.edf_busy) m.edf_busy = profibus::edf_busy_periods(sc.net, tm, opt_.fuel);
      r.detail = analyze_edf(sc.net, tm, nullptr, opt_.fuel, &*m.edf_busy, &scratch_);
      edf_offsets_counter().add(std::exchange(scratch_.edf_offsets_examined, 0));
      r.schedulable = r.detail.schedulable;
      break;
    case Policy::Opa: {
      const auto orders = audsley_stream_orders(sc.net, tm, opt_.formulation, opt_.fuel);
      r.detail = orders.has_value()
                     ? analyze_fixed_priority(sc.net, *orders, tm, opt_.formulation, opt_.fuel)
                     : all_miss(sc.net, tm);
      r.schedulable = r.detail.schedulable;
      break;
    }
    case Policy::TokenRing:
      r.detail = token_ring_check(sc.net, tm);
      r.schedulable = r.detail.schedulable;
      break;
    case Policy::Holistic: {
      const std::vector<profibus::Transaction> derived =
          sc.transactions.empty() ? per_stream_transactions(sc.net) : sc.transactions;
      profibus::HolisticOptions ho;
      ho.policy = profibus::ApPolicy::Dm;
      const profibus::HolisticResult hr = analyze_holistic(sc.net, derived, ho);
      r.detail = hr.network;
      r.schedulable = hr.converged && hr.schedulable;
      break;
    }
  }

  for (std::size_t k = 0; k < r.detail.masters.size(); ++k) {
    const MasterAnalysis& ma = r.detail.masters[k];
    for (std::size_t i = 0; i < ma.streams.size(); ++i) {
      ++r.n_streams;
      const StreamResponse& s = ma.streams[i];
      if (s.meets_deadline) ++r.streams_meeting;
      const Ticks slack = s.response == kNoBound
                              ? std::numeric_limits<Ticks>::min()
                              : sc.net.masters[k].high_streams[i].D - s.response;
      r.worst_slack = r.worst_slack == kNoBound ? slack : std::min(r.worst_slack, slack);
    }
  }
  return r;
}

}  // namespace profisched::engine
