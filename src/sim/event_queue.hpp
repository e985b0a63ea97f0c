// event_queue.hpp — the simulator's time-ordered event queue.
//
// A binary min-heap keyed on (time, sequence number), fronted by a one-entry
// slot. ORDERING INVARIANT: the sequence number makes same-instant events
// fire in scheduling order, which keeps runs deterministic regardless of heap
// tie-breaking — every comparison below goes through (time, seq) and nothing
// else.
//
// Front slot: schedule() puts a new entry in the slot when it precedes both
// the slot's entry and the heap's top, pushing a displaced slot entry into
// the heap; pop() and next_time() read the slot first, so the simulator's
// token chain (each hand-off schedules the next TokenArrival, due before all
// else) never sifts the heap. Firing order stays exactly (time, seq): an entry
// takes the slot only by preceding everything pending, else it joins the heap
// behind the slot, so pop() always removes the global minimum. Keys are
// unique, so the pop order — and with it the free-list order, recycled() and
// pool_high_water() — is a plain heap's.
//
// Pooled storage: the heap itself holds only 24-byte (time, seq, slot)
// entries, so sift operations move small trivially-copyable records; the
// payloads live beside it in a slot pool whose freed slots are recycled
// through a free list. Once the pool reaches the run's high-water mark,
// schedule()/pop() no longer touch the allocator.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/time_types.hpp"

namespace profisched::sim {

/// A popped event: when it fired, its scheduling rank, and its payload.
template <class Payload>
struct BasicEvent {
  Ticks time = 0;
  std::uint64_t seq = 0;  ///< insertion order, breaks same-time ties FIFO
  Payload payload{};
};

/// Min-heap of Payload values ordered by (time, seq), with a front slot and
/// pooled payload slots. Payload only needs to be movable.
template <class Payload>
class BasicEventQueue {
 public:
  /// Schedule `payload` at absolute time `at`.
  void schedule(Ticks at, Payload payload) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(std::move(payload));
    } else {
      slot = free_.back();
      free_.pop_back();
      pool_[slot] = std::move(payload);
      ++recycled_;
    }
    const Entry e{at, next_seq_++, slot};
    const bool first =
        has_front_ ? Later{}(front_, e) : heap_.empty() || Later{}(heap_.front(), e);
    if (!first) {
      push_heap(e);
      return;
    }
    if (has_front_) push_heap(front_);  // the displaced slot entry sinks
    front_ = e;
    has_front_ = true;
  }

  [[nodiscard]] bool empty() const noexcept { return !has_front_ && heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size() + (has_front_ ? 1 : 0); }

  /// Pool slots reused from the free list (vs freshly grown) — how much of
  /// the pooling actually paid off; surfaced in the telemetry sidecar.
  [[nodiscard]] std::uint64_t recycled() const noexcept { return recycled_; }

  /// High-water slot count: peak live+free pool size over the run.
  [[nodiscard]] std::size_t pool_high_water() const noexcept { return pool_.size(); }

  /// Time of the earliest pending event (kNoBound when empty).
  [[nodiscard]] Ticks next_time() const noexcept {
    if (has_front_) return front_.time;
    return heap_.empty() ? kNoBound : heap_.front().time;
  }

  /// Remove and return the earliest event; its slot returns to the free
  /// list. Precondition: !empty().
  [[nodiscard]] BasicEvent<Payload> pop() {
    assert(!empty());
    Entry e;
    if (has_front_) {
      e = front_;
      has_front_ = false;
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      e = heap_.back();
      heap_.pop_back();
    }
    BasicEvent<Payload> out{e.time, e.seq, std::move(pool_[e.slot])};
    free_.push_back(e.slot);
    return out;
  }

 private:
  struct Entry {
    Ticks time;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index into pool_
  };
  /// "a fires later than b" — std::push_heap/pop_heap keep the *earliest*
  /// (time, seq) at front under this comparison.
  struct Later {
    [[nodiscard]] bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  void push_heap(const Entry& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  Entry front_{};  ///< the earliest entry, when has_front_
  bool has_front_ = false;
  std::vector<Entry> heap_;
  std::vector<Payload> pool_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace profisched::sim
