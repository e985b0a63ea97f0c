// support/counting_listener.hpp — a SimListener that records every fault
// callback, for cross-checking the listener against a run's FaultStats.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/listener.hpp"

namespace profisched::test_support {

/// Records every observer callback; count() tallies them per kind.
struct CountingListener final : sim::SimListener {
  std::vector<sim::FaultEvent> events;
  void on_fault(const sim::FaultEvent& e) override { events.push_back(e); }
  [[nodiscard]] std::size_t count(sim::FaultKind k) const {
    std::size_t n = 0;
    for (const sim::FaultEvent& e : events) n += e.kind == k ? 1 : 0;
    return n;
  }
};

}  // namespace profisched::test_support
