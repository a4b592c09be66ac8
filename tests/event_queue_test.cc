#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/random.h"

namespace ftms {
namespace {

// The Simulator's pending set is one binary heap keyed by (time, seq).
// These cases pin that order at its edges: ties scheduled across steps,
// sparse far-future times, push/pop churn against a sorted reference,
// horizon handling, NaN times, periodic timers, and release of pending
// captures.

TEST(EventQueueTest, InterleavedTiesAcrossSteps) {
  // Ties scheduled after some of their peers already ran still come out
  // after every earlier-scheduled event at that timestamp.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  ASSERT_TRUE(sim.Step());
  ASSERT_TRUE(sim.Step());
  for (int i = 4; i < 8; ++i) {
    sim.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(sim.Now(), 1.0);
}

TEST(EventQueueTest, SparseFarFutureTailRunsInOrder) {
  Simulator sim;
  std::vector<std::pair<SimTime, int>> order;
  const SimTime times[] = {1e12, 0.5, 1e6, 2.0, 1e12};  // far-future tie
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(times[i],
                   [&sim, &order, i] { order.emplace_back(sim.Now(), i); });
  }
  sim.Run();
  const std::vector<std::pair<SimTime, int>> expected = {
      {0.5, 1}, {2.0, 3}, {1e6, 2}, {1e12, 0}, {1e12, 4}};
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, ChurnMatchesSortedReference) {
  // Push 3000 events, run 2900 of them, refill 500 later ones, run dry:
  // the full run order must be the (time, scheduling order) sort.
  Simulator sim;
  Rng rng(123);
  std::vector<std::pair<SimTime, int>> expected;
  std::vector<std::pair<SimTime, int>> ran;
  auto push = [&](SimTime t) {
    const int id = static_cast<int>(expected.size());
    expected.emplace_back(t, id);
    sim.ScheduleAt(t, [&sim, &ran, id] { ran.emplace_back(sim.Now(), id); });
  };
  for (int i = 0; i < 3000; ++i) push(rng.NextDouble() * 100.0);
  for (int i = 0; i < 2900; ++i) ASSERT_TRUE(sim.Step());
  for (int i = 0; i < 500; ++i) push(100.0 + rng.NextDouble() * 10.0);
  EXPECT_EQ(sim.pending(), 600u);
  sim.Run();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(ran, expected);
  EXPECT_EQ(sim.events_processed(), 3500u);
}

TEST(EventQueueTest, RunUntilHonorsHorizonExactly) {
  Simulator sim;
  std::vector<double> fired;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(static_cast<double>(i), [&fired, i] {
      fired.push_back(static_cast<double>(i));
    });
  }
  sim.RunUntil(4.0);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(sim.Now(), 4.0);
  sim.RunUntil(4.5);  // no events in (4, 4.5]
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(sim.Now(), 4.5);
  sim.Run();
  EXPECT_EQ(fired.size(), 10u);
}

TEST(EventQueueTest, ScheduleAtNanRunsNowAfterEarlierTies) {
  // A NaN time clamps to Now() like a negative delay: it takes the next
  // FIFO slot at the current time instead of poisoning the event order.
  Simulator sim;
  sim.Schedule(2.0, [] {});
  sim.Run();
  std::vector<std::pair<SimTime, std::string>> order;
  auto record = [&](const char* name) {
    return [&sim, &order, name] { order.emplace_back(sim.Now(), name); };
  };
  sim.ScheduleAt(2.0, record("tie"));
  sim.ScheduleAt(std::numeric_limits<double>::quiet_NaN(), record("nan"));
  sim.ScheduleAt(3.0, record("later"));
  sim.RunUntil(5.0);
  const std::vector<std::pair<SimTime, std::string>> expected = {
      {2.0, "tie"}, {2.0, "nan"}, {3.0, "later"}};
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(sim.empty());
}

TEST(EventQueueTest, PeriodicTimerCancelStopsTicks) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(&sim, 1.0, [&] {
    ++ticks;
    return true;
  });
  timer.Start(0.0);
  sim.RunUntil(2.5);
  EXPECT_EQ(ticks, 3);  // t = 0, 1, 2
  EXPECT_TRUE(timer.active());
  timer.Cancel();
  sim.RunUntil(10.0);
  EXPECT_EQ(ticks, 3);  // queued firing became a no-op
  EXPECT_FALSE(timer.active());
  EXPECT_TRUE(sim.empty());
}

TEST(EventQueueTest, PeriodicTicksInterleaveFifoWithScheduledEvents) {
  // The tick body runs BEFORE the next firing is scheduled, so an event
  // the tick schedules for the next period gets a SMALLER sequence number
  // than the next tick and runs first.
  Simulator sim;
  std::vector<std::string> order;
  int n = 0;
  SchedulePeriodic(sim, 0.0, 1.0, [&] {
    order.push_back("tick" + std::to_string(n));
    sim.Schedule(1.0, [&order, n2 = n] {
      order.push_back("echo" + std::to_string(n2));
    });
    return ++n < 3;
  });
  sim.Run();
  const std::vector<std::string> expected = {"tick0", "echo0", "tick1",
                                             "echo1", "tick2", "echo2"};
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, DestroyingWithPendingEventsReleasesCaptures) {
  auto tracked = std::make_shared<int>(5);
  std::weak_ptr<int> weak = tracked;
  {
    Simulator sim;
    sim.Schedule(1.0, [tracked] { (void)*tracked; });
    tracked.reset();
    EXPECT_FALSE(weak.expired());  // the pending event keeps it alive
  }
  EXPECT_TRUE(weak.expired());  // destroying the simulator released it
}

}  // namespace
}  // namespace ftms
