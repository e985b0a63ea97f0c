// Unit tests for the simulator's event queue, plus a property test of its
// front slot: seeded random schedule/pop interleavings against a
// (time, seq)-sorted reference, checking every observable after every step.
#include "sim/event_queue.hpp"

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.hpp"

namespace profisched::sim {
namespace {

/// Payloads are ids, so a pop shows which schedule() it came from.
using Queue = BasicEventQueue<int>;

std::vector<int> drain(Queue& q) {
  std::vector<int> out;
  while (!q.empty()) out.push_back(q.pop().payload);
  return out;
}

TEST(EventQueue, EmptyInitially) {
  Queue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kNoBound);
}

TEST(EventQueue, PopsInTimeOrder) {
  Queue q;
  q.schedule(30, 30);
  q.schedule(10, 10);
  q.schedule(20, 20);
  EXPECT_EQ(drain(q), (std::vector<int>{10, 20, 30}));
}

TEST(EventQueue, SameTimeFifoByInsertionOrder) {
  Queue q;
  for (int i = 0; i < 10; ++i) q.schedule(5, i);
  const std::vector<int> fired = drain(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeTracksEarliest) {
  Queue q;
  q.schedule(50, 0);
  EXPECT_EQ(q.next_time(), 50);
  q.schedule(20, 1);
  EXPECT_EQ(q.next_time(), 20);
  (void)q.pop();
  EXPECT_EQ(q.next_time(), 50);
}

// Horizon saturation: kNoBound is a legal event time that must sort after
// every finite time (never starving earlier events) and sat_add must pin at
// kNoBound instead of wrapping negative — a wrapped time would sort first
// and starve the whole queue.
TEST(EventQueue, SaturatedTimesSortLastAndNeverWrap) {
  EXPECT_EQ(sat_add(kNoBound, 1), kNoBound);
  EXPECT_EQ(sat_add(kNoBound - 3, 10), kNoBound);
  EXPECT_EQ(sat_add(kNoBound, kNoBound), kNoBound);
  EXPECT_EQ(sat_mul(kNoBound, 2), kNoBound);
  EXPECT_EQ(sat_mul(kNoBound / 2 + 1, 2), kNoBound);

  Queue q;
  std::vector<Ticks> popped;
  q.schedule(kNoBound, 0);
  q.schedule(sat_add(kNoBound - 1, 100), 1);  // saturates, joins the far bucket
  q.schedule(10, 2);
  q.schedule(kNoBound - 1, 3);
  EXPECT_EQ(q.next_time(), 10);  // finite work is never starved
  while (!q.empty()) popped.push_back(q.pop().time);
  EXPECT_EQ(popped, (std::vector<Ticks>{10, kNoBound - 1, kNoBound, kNoBound}));
}

TEST(EventQueue, PopReturnsTimeAndSeq) {
  Queue q;
  q.schedule(7, 0);
  q.schedule(7, 1);
  const BasicEvent<int> a = q.pop();
  const BasicEvent<int> b = q.pop();
  EXPECT_EQ(a.time, 7);
  EXPECT_EQ(b.time, 7);
  EXPECT_LT(a.seq, b.seq);
}

TEST(EventQueue, InterleavedScheduleAndPop) {
  Queue q;
  std::vector<int> fired;
  q.schedule(1, 1);
  q.schedule(3, 3);
  fired.push_back(q.pop().payload);
  q.schedule(2, 2);
  for (const int id : drain(q)) fired.push_back(id);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

// The front slot's cases, one at a time: an earlier entry displaces the slot
// into the heap, a same-tick entry queues behind it, and an entry earlier
// than the heap's top takes the emptied slot.
TEST(EventQueue, FrontSlotDisplacementKeepsTimeSeqOrder) {
  Queue q;
  q.schedule(10, 0);  // empty queue: takes the slot
  q.schedule(5, 1);   // earlier while the slot is occupied
  q.schedule(5, 2);   // same tick: behind 1 by seq
  q.schedule(10, 3);  // same tick as 0: behind it by seq
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.pop().payload, 1);
  q.schedule(5, 4);  // at now, slot empty, heap top (5, seq 2) stays first
  q.schedule(7, 5);
  EXPECT_EQ(drain(q), (std::vector<int>{2, 4, 5, 0, 3}));
  q.schedule(1, 6);  // refill after popping empty
  EXPECT_EQ(q.next_time(), 1);
  EXPECT_EQ(q.pop().seq, 6u);
  EXPECT_TRUE(q.empty());
}

/// The reference: every pending (time, seq, id), kept sorted.
using RefEntry = std::tuple<Ticks, std::uint64_t, int>;

TEST(EventQueue, RandomInterleavingsMatchSortedReference) {
  std::uint64_t ties = 0, at_now = 0, far = 0, displaced = 0, refills = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Queue q;
    std::set<RefEntry> ref;
    std::uint64_t seq = 0, live = 0, peak = 0;
    Ticks now = 0;
    bool last_was_new_min = false;  // the previous op scheduled the earliest entry
    bool drained = false;
    for (int step = 0; step < 3000; ++step) {
      if (ref.empty() || rng.chance(0.52)) {
        const double r = rng.uniform01();
        const Ticks at = r < 0.2    ? now
                         : r < 0.75 ? now + rng.uniform(0, 8)
                         : r < 0.92 ? now + rng.uniform(0, 200)
                                    : kNoBound;
        const int id = static_cast<int>(seq);
        const bool new_min = ref.empty() || std::get<0>(*ref.begin()) > at;
        at_now += at == now ? 1 : 0;
        far += at == kNoBound ? 1 : 0;
        displaced += new_min && last_was_new_min ? 1 : 0;
        refills += drained ? 1 : 0;
        drained = false;
        last_was_new_min = new_min;
        q.schedule(at, id);
        ref.emplace(at, seq++, id);
        peak = std::max(peak, ++live);
      } else {
        const RefEntry want = *ref.begin();
        ref.erase(ref.begin());
        const BasicEvent<int> got = q.pop();
        ASSERT_EQ(got.time, std::get<0>(want)) << "seed " << seed << " step " << step;
        ASSERT_EQ(got.seq, std::get<1>(want));
        ASSERT_EQ(got.payload, std::get<2>(want));
        ties += !ref.empty() && std::get<0>(*ref.begin()) == got.time ? 1 : 0;
        if (got.time != kNoBound) now = got.time;
        --live;
        last_was_new_min = false;
        drained = ref.empty();
      }
      ASSERT_EQ(q.next_time(), ref.empty() ? kNoBound : std::get<0>(*ref.begin()));
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_EQ(q.empty(), ref.empty());
      // Every freed slot is reused before the pool grows: the pool's size is
      // the peak live count, and every other schedule() recycled a slot.
      ASSERT_EQ(q.pool_high_water(), peak);
      ASSERT_EQ(q.recycled(), seq - peak);
    }
  }
  // Each case the slot must get right actually occurred.
  EXPECT_GT(ties, 0u);
  EXPECT_GT(at_now, 0u);
  EXPECT_GT(far, 0u);
  EXPECT_GT(displaced, 0u);
  EXPECT_GT(refills, 0u);
}

}  // namespace
}  // namespace profisched::sim
