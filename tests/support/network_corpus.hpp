// support/network_corpus.hpp — the randomized PROFIBUS network corpus the
// analysis equivalence suites share: 1–4 masters, 1–16 streams, jitter, u up
// to 1.05 (exactly saturating masters included), deadlines far beyond the
// busy period, streams faster than T_cycle (the vector gate off), magnitudes
// that trip the kernels' per-iteration gate, and fault_bounds degraded
// networks. Each network is a pure function of its seed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "profibus/edf_analysis.hpp"
#include "profibus/fault_bounds.hpp"
#include "sim/rng.hpp"
#include "workload/generators.hpp"

namespace profisched::test_support {

/// Networks in the corpus (seeds 1..kCorpusNetworks).
inline constexpr std::size_t kCorpusNetworks = 1000;

/// One generated network, its timing and — for some regimes — explicit EDF
/// busy-period horizons. `kind` names the regimes applied.
struct CorpusNetwork {
  std::uint64_t seed = 0;
  std::string kind;
  profibus::Network net;
  profibus::TimingMemo memo;
  std::optional<std::vector<Ticks>> busy;  ///< explicit horizons, or derived

  [[nodiscard]] const std::vector<Ticks>* horizons() const { return busy ? &*busy : nullptr; }
};

inline void scale_times(profibus::Network& net, Ticks factor) {
  for (profibus::Master& m : net.masters) {
    for (profibus::MessageStream& s : m.high_streams) {
      s.T *= factor;
      s.D *= factor;
      s.J *= factor;
    }
  }
}

/// The network for `seed` — a pure function of the seed.
inline CorpusNetwork corpus_network(std::uint64_t seed) {
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  workload::NetworkParams p;
  p.n_masters = 1 + static_cast<std::size_t>(rng.uniform(0, 3));
  p.streams_per_master = 1 + static_cast<std::size_t>(rng.uniform(0, 15));
  p.ttr = workload::log_uniform(1'500, 12'000, rng);
  // u ∈ [0.2, 1.05]. Near saturation the reference scans tens of thousands
  // of offsets per master, so keep those masters small to bound the suite's
  // run time (under ASan too); every 25th network is made exactly saturated
  // below.
  p.total_u = 0.2 + 0.85 * rng.uniform01();
  if (p.total_u > 0.95) {
    p.streams_per_master = std::min<std::size_t>(p.streams_per_master, 6);
  }
  p.deadline_lo = 0.3 + 0.5 * rng.uniform01();
  p.deadline_hi = p.deadline_lo + 0.4 * rng.uniform01();

  CorpusNetwork c;
  c.seed = seed;
  c.kind = "uunifast";
  c.net = workload::random_network(p, rng).net;
  if (seed % 3 == 0) {
    c.kind += "+jitter";
    for (profibus::Master& m : c.net.masters) {
      for (profibus::MessageStream& s : m.high_streams) s.J = rng.uniform(0, s.D / 2);
    }
  }
  if (seed % 7 == 0) {
    // Deadlines far beyond the busy period (the shared-candidate trap).
    c.kind += "+long-deadline";
    for (profibus::Master& m : c.net.masters) {
      for (profibus::MessageStream& s : m.high_streams) s.D *= rng.uniform(20, 100);
    }
  }

  if (seed % 5 == 0) {
    c.kind += "+degraded";
    profibus::FaultModel f;
    f.token_loss_prob = 0.02;
    f.token_recovery = rng.uniform(100, 1'000);
    f.corruption_prob = 0.05;
    f.max_retransmissions = static_cast<int>(rng.uniform(1, 2));
    f.churn_prob = seed % 10 == 0 ? 0.01 : 0.0;
    c.net = profibus::degraded_network(c.net, f);
    c.memo = profibus::degraded_timing(c.net, f);
  } else {
    c.memo = profibus::compute_timing(c.net);
  }

  if (seed % 25 == 12) {
    // Exactly saturated masters: T_i = nh · T_cycle, so Σ T_cycle/T_i = 1.
    c.kind += "+saturated";
    for (std::size_t k = 0; k < c.net.n_masters(); ++k) {
      profibus::Master& m = c.net.masters[k];
      for (profibus::MessageStream& s : m.high_streams) {
        s.T = static_cast<Ticks>(m.nh()) * c.memo.per_master[k];
      }
    }
  }

  if (seed % 11 == 0) {
    // One stream faster than T_cycle: C = T_cycle > T_j switches the vector
    // gate off. Its master's busy period diverges, so keep the horizons of
    // the unmodified network to still scan offsets.
    c.kind += "+fast-stream";
    c.busy = profibus::edf_busy_periods(c.net, c.memo);
    const std::size_t k = static_cast<std::size_t>(rng.uniform(0, c.net.n_masters() - 1));
    profibus::MessageStream& s = c.net.masters[k].high_streams.front();
    s.T = std::max<Ticks>(1, c.memo.per_master[k] / 2);
  } else if (seed % 13 == 0) {
    // Times scaled by 2^26 (periods up to ~2^44) with a 2^45 horizon:
    // offsets push a + D_i and the iterates past the kernels' 2^44 region,
    // so scans fall back to the scalar recurrence mid-way.
    c.kind += "+huge";
    scale_times(c.net, Ticks{1} << 26);
    c.busy = std::vector<Ticks>(c.net.n_masters(), Ticks{1} << 45);
  }

  return c;
}

}  // namespace profisched::test_support
