// Unit tests for the simulation kernel.
#include "sim/kernel.hpp"

#include <functional>
#include <vector>

#include <gtest/gtest.h>

namespace profisched::sim {
namespace {

// Callback payloads make the kernel's ordering directly observable.
using Kernel = BasicKernel<std::function<void()>>;

std::uint64_t run(Kernel& k, Ticks horizon) {
  return k.run_until(horizon, [](std::function<void()>& action) { action(); });
}

TEST(Kernel, ClockStartsAtZero) {
  Kernel k;
  EXPECT_EQ(k.now(), 0);
  EXPECT_EQ(k.events_processed(), 0u);
}

TEST(Kernel, AdvancesToEventTimes) {
  Kernel k;
  std::vector<Ticks> seen;
  k.at(10, [&] { seen.push_back(k.now()); });
  k.at(25, [&] { seen.push_back(k.now()); });
  run(k, 100);
  EXPECT_EQ(seen, (std::vector<Ticks>{10, 25}));
  EXPECT_EQ(k.now(), 25);
}

TEST(Kernel, AfterIsRelativeToNow) {
  Kernel k;
  Ticks completion = -1;
  k.at(10, [&] { k.after(5, [&] { completion = k.now(); }); });
  run(k, 100);
  EXPECT_EQ(completion, 15);
}

TEST(Kernel, HorizonIsInclusive) {
  Kernel k;
  bool at_horizon = false, past_horizon = false;
  k.at(50, [&] { at_horizon = true; });
  k.at(51, [&] { past_horizon = true; });
  run(k, 50);
  EXPECT_TRUE(at_horizon);
  EXPECT_FALSE(past_horizon);
}

TEST(Kernel, ReturnsEventsProcessed) {
  Kernel k;
  for (Ticks t = 1; t <= 5; ++t) k.at(t, [] {});
  EXPECT_EQ(run(k, 3), 3u);
  EXPECT_EQ(run(k, 10), 2u);
  EXPECT_EQ(k.events_processed(), 5u);
}

TEST(Kernel, EventsCanCascade) {
  Kernel k;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) k.after(1, recurse);
  };
  k.at(0, recurse);
  run(k, 1000);
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(k.now(), 99);
}

TEST(Kernel, SecondRunContinuesWhereFirstStopped) {
  Kernel k;
  std::vector<Ticks> seen;
  for (Ticks t : {10, 20, 30}) k.at(t, [&k, &seen] { seen.push_back(k.now()); });
  run(k, 15);
  EXPECT_EQ(seen.size(), 1u);
  run(k, 100);
  EXPECT_EQ(seen, (std::vector<Ticks>{10, 20, 30}));
}

// The past-time guards must hold in EVERY build configuration — they were
// once plain assert()s, which Release (NDEBUG) compiled away, letting a
// negative delay or stale absolute time silently rewind the clock and
// corrupt event ordering for the rest of the run.
TEST(Kernel, RejectsPastTimeSchedulingInAllBuildConfigurations) {
  Kernel k;
  k.at(10, [] {});
  run(k, 10);
  ASSERT_EQ(k.now(), 10);
  EXPECT_THROW(k.after(-1, [] {}), std::invalid_argument);
  EXPECT_THROW(k.at(9, [] {}), std::invalid_argument);
  // The guard must not over-reject the boundary: now() itself is legal.
  bool fired = false;
  EXPECT_NO_THROW(k.at(10, [&] { fired = true; }));
  EXPECT_NO_THROW(k.after(0, [] {}));
  run(k, 10);
  EXPECT_TRUE(fired);
  EXPECT_EQ(k.now(), 10);  // clock never rewound
}

// Saturated times are legal and inert: an event at kNoBound never fires
// under a finite horizon, and a saturating after() from a late clock must
// not wrap negative (which the guard would then misreport as a rewind).
TEST(Kernel, SaturatedTimesNeverFireOrWrap) {
  Kernel k;
  bool fired = false;
  k.at(kNoBound, [&] { fired = true; });
  k.at(5, [] {});
  run(k, 1'000'000);
  EXPECT_EQ(k.now(), 5);
  EXPECT_FALSE(fired);
  // after() saturates instead of overflowing past kNoBound.
  EXPECT_NO_THROW(k.after(kNoBound, [&] { fired = true; }));
  run(k, kNoBound - 1);
  EXPECT_FALSE(fired);
}

}  // namespace
}  // namespace profisched::sim
