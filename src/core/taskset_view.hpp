// taskset_view.hpp — flat structure-of-arrays view over a TaskSet, plus the
// reusable scratch arena the optimized analysis kernels iterate from.
//
// The AoS TaskSet (core/task.hpp) is the right construction/validation
// surface, but the fixed-point kernels only ever read the four Ticks fields —
// walking Task objects drags each task's std::string name through the cache
// and, in the fixed-priority analyses, forces a `higher_priority` index
// vector per task. Binding a TaskSetView copies C/T/D/J once into four
// contiguous arrays (optionally permuted into priority order, so "all
// higher-priority tasks" is simply the prefix [0, rank)) and the inner loops
// become branch-light streaming passes with no indirection.
//
// Bit-identical guarantee: a bound view preserves the task order it was built
// with, so every kernel that iterates a view performs exactly the arithmetic,
// in exactly the order, of its retained TaskSet-based reference — including
// the double-precision utilization sum, which is order-sensitive.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/task.hpp"

namespace profisched {

/// Non-owning SoA view. Element p of each array describes one task; when the
/// view was bound with a priority order, p is the priority rank (0 highest)
/// and index[p] maps back to the TaskSet position.
struct TaskSetView {
  const Ticks* C = nullptr;
  const Ticks* T = nullptr;
  const Ticks* D = nullptr;
  const Ticks* J = nullptr;
  const std::size_t* index = nullptr;  ///< view position -> TaskSet position
  std::size_t n = 0;

  /// Arena-bound views pad the four arrays out to this count (a multiple of
  /// the widest lane width) with neutral slots (C=0, T=1, D=0, J=0) so the
  /// full-set vector kernels need no tail handling; the padding contributes
  /// exactly zero to every sum. n_padded == n for hand-built views.
  std::size_t n_padded = 0;

  /// Per-element 1.0 / T[i] (padded like the arrays), or nullptr for
  /// hand-built views. Precomputed at bind so the lane kernels never divide.
  const double* recip_t = nullptr;

  /// True when this view satisfies the vector-kernel input gate (every
  /// C/T/D/J ≤ simd::kMaxValue, 0 ≤ C ≤ T, n ≤ simd::kMaxTasks) and recip_t
  /// is bound.
  bool simd_ok = false;

  [[nodiscard]] bool empty() const noexcept { return n == 0; }

  /// Σ C_i / T_i summed in view order (== TaskSet::utilization() for an
  /// identity-bound view; the FP sum is order-sensitive, so permuted views
  /// must not be used where the reference compares against utilization()).
  [[nodiscard]] double utilization() const noexcept {
    double u = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      u += static_cast<double>(C[i]) / static_cast<double>(T[i]);
    }
    return u;
  }

  /// Σ C_i (saturating) in view order.
  [[nodiscard]] Ticks total_execution() const noexcept {
    Ticks sum = 0;
    for (std::size_t i = 0; i < n; ++i) sum = sat_add(sum, C[i]);
    return sum;
  }
};

/// Reusable arena materializing TaskSetViews. Buffers grow to the high-water
/// task count and are then reused: binding is allocation-free in steady
/// state, which is what lets a full sweep run the kernels without touching
/// the allocator. The returned view aliases the arena — it is invalidated by
/// the next bind() on the same arena.
class TaskSetArena {
 public:
  /// Bind in TaskSet order (index[p] == p).
  const TaskSetView& bind(const TaskSet& ts);

  /// Bind permuted: view position p holds the task at order[p]. `order` may
  /// cover a subset of the set (the view then has order.size() elements);
  /// indices are bounds-checked.
  const TaskSetView& bind(const TaskSet& ts, std::span<const std::size_t> order);

  /// Bind n tasks that are not a TaskSet: `write(C, T, D, J)` fills elements
  /// [0, n) of the four columns (index[p] == p). Padding, the reciprocal
  /// cache and the simd_ok gate are then applied exactly as for a TaskSet
  /// bind — the PROFIBUS EDF analysis binds a master's message streams this
  /// way, with every C set to T_cycle.
  template <typename WriteFn>
  const TaskSetView& bind_columns(std::size_t n, WriteFn&& write) {
    resize(n);
    write(c_.data(), t_.data(), d_.data(), j_.data());
    for (std::size_t p = 0; p < n; ++p) idx_[p] = p;
    return seal(n);
  }

 private:
  const TaskSetView& fill(const TaskSet& ts, const std::size_t* order, std::size_t n);
  void resize(std::size_t n);
  const TaskSetView& seal(std::size_t n);

  std::vector<Ticks> c_, t_, d_, j_;
  std::vector<double> recip_t_;
  std::vector<Ticks> recip_of_;  ///< the T each recip_t_ entry was computed from
  std::vector<std::size_t> idx_;
  TaskSetView view_;
};

/// Per-worker scratch for the optimized core analyses: one arena plus the
/// buffers the kernels would otherwise allocate per call. Reusing one
/// RtaScratch across calls makes whole-set analyses allocation-free in
/// steady state (only the per-call result vectors remain).
///
/// `warm` carries converged fixed points between *compatible* calls: the
/// same task structure under the same priority order, with parameters that
/// only grew (the utilization-sweep contract, see usweep.hpp). The analyses
/// refresh it on every run; callers opt into seeding from it explicitly.
struct RtaScratch {
  TaskSetArena arena;
  std::vector<Ticks> warm;        ///< per-rank converged queueing fixed points
  Ticks warm_busy = 0;            ///< converged busy-period length
  std::vector<Ticks> offsets;     ///< EDF candidate-offset buffer
  std::vector<Ticks> checkpoints; ///< feasibility deadline-checkpoint buffer
  std::vector<Ticks> np_blocking; ///< per-rank suffix-max blocking factors
};

}  // namespace profisched
