#include "core/taskset_view.hpp"

#include <algorithm>

#include "core/simd.hpp"

namespace profisched {

const TaskSetView& TaskSetArena::bind(const TaskSet& ts) {
  return fill(ts, nullptr, ts.size());
}

const TaskSetView& TaskSetArena::bind(const TaskSet& ts, std::span<const std::size_t> order) {
  return fill(ts, order.data(), order.size());
}

const TaskSetView& TaskSetArena::fill(const TaskSet& ts, const std::size_t* order,
                                      std::size_t n) {
  resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t i = order != nullptr ? order[p] : p;
    const Task& task = ts[i];
    c_[p] = task.C;
    t_[p] = task.T;
    d_[p] = task.D;
    j_[p] = task.J;
    idx_[p] = i;
  }
  return seal(n);
}

void TaskSetArena::resize(std::size_t n) {
  // Pad to the widest lane width so full-set kernels need no tail pass.
  const std::size_t np = (n + 3) & ~std::size_t{3};
  c_.resize(np);
  t_.resize(np);
  d_.resize(np);
  j_.resize(np);
  recip_t_.resize(np);
  recip_of_.resize(np);
  idx_.resize(n);
}

const TaskSetView& TaskSetArena::seal(std::size_t n) {
  const std::size_t np = c_.size();
  Ticks max_field = 0;
  bool rel_ok = true;  // 0 ≤ C ≤ T: the kernels' product-exactness invariant
  for (std::size_t p = 0; p < n; ++p) {
    max_field = std::max({max_field, t_[p], d_[p], j_[p]});  // C ≤ T once rel_ok holds
    rel_ok = rel_ok && c_[p] >= 0 && c_[p] <= t_[p];
  }
  for (std::size_t p = n; p < np; ++p) {
    c_[p] = 0;
    t_[p] = 1;
    d_[p] = 0;
    j_[p] = 0;
  }
  // Reciprocals only depend on the T column, which a utilization sweep never
  // changes — recompute only the slots whose period moved since last bind.
  for (std::size_t p = 0; p < np; ++p) {
    if (recip_of_[p] != t_[p]) {
      recip_of_[p] = t_[p];
      recip_t_[p] = 1.0 / static_cast<double>(t_[p]);
    }
  }
  view_ = TaskSetView{c_.data(), t_.data(),    d_.data(),
                      j_.data(), idx_.data(),  n,
                      np,        recip_t_.data(),
                      rel_ok && n <= simd::kMaxTasks && max_field <= simd::kMaxValue};
  return view_;
}

}  // namespace profisched
