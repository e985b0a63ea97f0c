#include "profibus/priority_assignment.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "profibus/detail/fp_message_rta.hpp"
#include "profibus/token_ring_analysis.hpp"

namespace profisched::profibus {

NetworkOrders deadline_monotonic_orders(const Network& net) {
  NetworkOrders orders(net.n_masters());
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    detail::deadline_monotonic_order(net.masters[k], orders[k]);
  }
  return orders;
}

NetworkAnalysis analyze_fixed_priority(const Network& net, const NetworkOrders& orders,
                                       TcycleMethod method, Formulation form, int fuel) {
  return analyze_fixed_priority(net, orders, compute_timing(net, method), form, fuel);
}

NetworkAnalysis analyze_fixed_priority(const Network& net, const NetworkOrders& orders,
                                       const TimingMemo& memo, Formulation form, int fuel) {
  net.validate();
  if (orders.size() != net.n_masters()) {
    throw std::invalid_argument("analyze_fixed_priority: orders shape mismatch");
  }
  NetworkAnalysis out;
  out.tcycle = memo.tcycle;
  out.schedulable = true;

  const std::vector<Ticks>& tc = memo.per_master;
  out.masters.resize(net.n_masters());

  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    const Master& master = net.masters[k];
    if (orders[k].size() != master.nh()) {
      throw std::invalid_argument("analyze_fixed_priority: order size mismatch at master " +
                                  master.name);
    }
    MasterAnalysis& ma = out.masters[k];
    ma.schedulable = true;
    ma.streams.resize(master.nh());
    for (std::size_t rank = 0; rank < orders[k].size(); ++rank) {
      const std::size_t i = orders[k][rank];
      ma.streams[i] = detail::fp_stream_response(master, orders[k], rank, tc[k], form, fuel,
                                                 kNoBound);
      if (!ma.streams[i].meets_deadline) ma.schedulable = false;
    }
    if (!ma.schedulable) out.schedulable = false;
  }
  return out;
}

namespace {

/// OPA for one master: fill priority levels bottom-up. A stream is feasible
/// at the lowest remaining level iff its eq.-16 response — with all other
/// unassigned streams above it — meets its deadline. The response at a level
/// depends only on the *set* of higher-priority streams (the interference
/// sum is order-independent) and on whether lower-priority streams exist
/// (they do, except at the very bottom), so OPA's optimality applies.
std::optional<StreamOrder> opa_master(const Master& master, Ticks tcycle, Formulation form,
                                      int fuel) {
  std::vector<std::size_t> unassigned(master.nh());
  std::iota(unassigned.begin(), unassigned.end(), std::size_t{0});
  StreamOrder reversed;  // lowest level first
  std::vector<std::size_t> order;

  while (!unassigned.empty()) {
    bool placed = false;
    for (std::size_t pos = 0; pos < unassigned.size(); ++pos) {
      // Evaluate candidate at the lowest remaining level: higher-priority
      // set = all other unassigned; lower-priority = already placed.
      order.assign(unassigned.begin(), unassigned.end());
      std::rotate(order.begin() + static_cast<std::ptrdiff_t>(pos),
                  order.begin() + static_cast<std::ptrdiff_t>(pos) + 1, order.end());
      // `order` now has the candidate last among the unassigned; append the
      // already-placed (lower) streams below it so blocking applies.
      for (auto it = reversed.rbegin(); it != reversed.rend(); ++it) order.push_back(*it);
      const std::size_t rank = unassigned.size() - 1;
      // Only the verdict is read, so the candidate's deadline bounds the
      // iteration (exact; see fp_stream_response).
      const Ticks deadline = master.high_streams[order[rank]].D;
      const StreamResponse r =
          detail::fp_stream_response(master, order, rank, tcycle, form, fuel, deadline);
      if (r.meets_deadline) {
        reversed.push_back(order[rank]);
        unassigned.erase(std::ranges::find(unassigned, order[rank]));
        placed = true;
        break;
      }
    }
    if (!placed) return std::nullopt;
  }
  std::ranges::reverse(reversed);
  return reversed;
}

}  // namespace

std::optional<NetworkOrders> audsley_stream_orders(const Network& net, TcycleMethod method,
                                                   Formulation form, int fuel) {
  return audsley_stream_orders(net, compute_timing(net, method), form, fuel);
}

std::optional<NetworkOrders> audsley_stream_orders(const Network& net, const TimingMemo& memo,
                                                   Formulation form, int fuel) {
  net.validate();
  const std::vector<Ticks>& tc = memo.per_master;
  NetworkOrders out(net.n_masters());
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    auto order = opa_master(net.masters[k], tc[k], form, fuel);
    if (!order.has_value()) return std::nullopt;
    out[k] = std::move(*order);
  }
  return out;
}

}  // namespace profisched::profibus
