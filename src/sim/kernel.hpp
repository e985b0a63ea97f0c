// kernel.hpp — minimal discrete-event simulation kernel: a clock plus the
// event queue. Components schedule continuations against the kernel; the
// kernel advances time to each event in order until the horizon.
//
// Events are plain Payload values and run_until takes the handler that
// interprets them — no allocation per event.
#pragma once

#include <stdexcept>
#include <utility>

#include "sim/event_queue.hpp"

namespace profisched::sim {

template <class Payload>
class BasicKernel {
 public:
  [[nodiscard]] Ticks now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }
  [[nodiscard]] std::uint64_t pool_recycles() const noexcept { return queue_.recycled(); }
  [[nodiscard]] std::size_t pool_high_water() const noexcept { return queue_.pool_high_water(); }

  /// Schedule `payload` `delay` ticks from now. Throws std::invalid_argument
  /// on a negative delay — always, not just in Debug builds: run_until sets
  /// now_ = event.time, so a past-time schedule would silently rewind the
  /// clock and corrupt event ordering for the rest of the run.
  void after(Ticks delay, Payload payload) {
    if (delay < 0) throw std::invalid_argument("BasicKernel::after: negative delay");
    queue_.schedule(sat_add(now_, delay), std::move(payload));
  }

  /// Schedule at an absolute time. Throws std::invalid_argument when `time`
  /// precedes now() (same always-on guard as after()). A saturated time
  /// (kNoBound) is legal: the event simply never fires under a finite
  /// horizon and cannot starve earlier events (the queue orders by time).
  void at(Ticks time, Payload payload) {
    if (time < now_) throw std::invalid_argument("BasicKernel::at: time precedes now()");
    queue_.schedule(time, std::move(payload));
  }

  /// Run events until the queue empties or the next event is after `horizon`,
  /// passing each payload to `handle`. Events exactly at the horizon still
  /// fire. Returns events processed by this call.
  template <class Handler>
  std::uint64_t run_until(Ticks horizon, Handler&& handle) {
    std::uint64_t n = 0;
    while (!queue_.empty() && queue_.next_time() <= horizon) {
      BasicEvent<Payload> e = queue_.pop();
      now_ = e.time;
      handle(e.payload);
      ++n;
    }
    processed_ += n;
    return n;
  }

 private:
  Ticks now_ = 0;
  std::uint64_t processed_ = 0;
  BasicEventQueue<Payload> queue_;
};

}  // namespace profisched::sim
