#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace silica {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(3.0, [&] { order.push_back(3); });
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(2.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  double inner_time = 0.0;
  sim.Schedule(1.0, [&] {
    sim.Schedule(2.0, [&] { inner_time = sim.Now(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(inner_time, 3.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.Schedule(1.0, [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim;
  int count = 0;
  sim.Schedule(1.0, [&] { ++count; });
  sim.Schedule(10.0, [&] { ++count; });
  sim.Run(5.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
  sim.Run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.Schedule(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator sim;
  sim.Schedule(5.0, [&] {
    EXPECT_THROW(sim.ScheduleAt(1.0, [] {}), std::invalid_argument);
  });
  sim.Run();
}

TEST(Simulator, IdleReflectsQueueState) {
  Simulator sim;
  EXPECT_TRUE(sim.Idle());
  const auto id = sim.Schedule(1.0, [] {});
  EXPECT_FALSE(sim.Idle());
  sim.Cancel(id);
  EXPECT_TRUE(sim.Idle());  // only a tombstone remains
  sim.Run();
  EXPECT_TRUE(sim.Idle());
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  const auto id = sim.Schedule(1.0, [&] { ++fired; });
  sim.Run();
  sim.Cancel(id);  // already executed; must not corrupt later runs
  sim.Schedule(1.0, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 2);
}

// Regression: cancelling ids that are not pending (already fired, or never
// issued) used to insert permanent tombstones, making Idle() report false
// forever once live events were queued alongside them.
TEST(Simulator, CancelOfFiredIdLeavesNoTombstone) {
  Simulator sim;
  const auto id = sim.Schedule(1.0, [] {});
  sim.Run();
  EXPECT_TRUE(sim.Idle());
  sim.Cancel(id);  // fired already — must not create a tombstone
  sim.Schedule(1.0, [] {});
  EXPECT_FALSE(sim.Idle());  // one live event, zero tombstones
  sim.Run();
  EXPECT_TRUE(sim.Idle());
}

TEST(Simulator, CancelOfUnknownIdLeavesNoTombstone) {
  Simulator sim;
  sim.Cancel(12345);  // never scheduled
  sim.Cancel(Simulator::kInvalidEvent);
  EXPECT_TRUE(sim.Idle());
  sim.Schedule(1.0, [] {});
  EXPECT_FALSE(sim.Idle());
  sim.Run();
  EXPECT_TRUE(sim.Idle());
}

TEST(Simulator, DoubleCancelCountsOneTombstone) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.Schedule(1.0, [&] { fired = true; });
  sim.Cancel(id);
  sim.Cancel(id);  // second cancel is a no-op, not a second tombstone
  EXPECT_TRUE(sim.Idle());
  sim.Schedule(2.0, [] {});
  EXPECT_FALSE(sim.Idle());
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.Idle());
}

// Re-entrancy regressions: fault-host callbacks fire from inside the event
// loop and Cancel/Schedule re-entrantly (an aborted shuttle job cancels its
// arrival event; a drive failure cancels the in-flight read and schedules the
// retry probe). These pin the semantics those paths rely on.

TEST(Simulator, CancelSameTimeSiblingFromInsideCallback) {
  Simulator sim;
  std::vector<int> order;
  Simulator::EventId sibling = Simulator::kInvalidEvent;
  sim.Schedule(1.0, [&] {
    order.push_back(1);
    sim.Cancel(sibling);  // queued at the same timestamp, not yet fired
  });
  sibling = sim.Schedule(1.0, [&] { order.push_back(2); });
  sim.Schedule(1.0, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, CancelSelfFromInsideCallbackIsNoop) {
  Simulator sim;
  int fired = 0;
  Simulator::EventId self = Simulator::kInvalidEvent;
  self = sim.Schedule(1.0, [&] {
    ++fired;
    sim.Cancel(self);  // already executing — must not tombstone or reorder
  });
  sim.Schedule(2.0, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(sim.Idle());
}

TEST(Simulator, ZeroDelayScheduleFromCallbackRunsAfterSameTimeSiblings) {
  // A zero-delay event scheduled from inside a firing callback lands at the
  // same timestamp but with a larger id, so FIFO runs it after every already-
  // queued event at that time.
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(1.0, [&] {
    order.push_back(1);
    sim.Schedule(0.0, [&] { order.push_back(9); });
  });
  sim.Schedule(1.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 9}));
  EXPECT_DOUBLE_EQ(sim.Now(), 1.0);
}

TEST(Simulator, CancelAndRescheduleFromCallbackKeepsDeterministicOrder) {
  // The drive-failure path in one motion: cancel a pending event and schedule
  // its replacement from inside a callback, twice, asserting the replacement
  // fires exactly once at the replacement time.
  Simulator sim;
  std::vector<double> fired_at;
  Simulator::EventId pending = Simulator::kInvalidEvent;
  pending = sim.Schedule(5.0, [&] { fired_at.push_back(sim.Now()); });
  sim.Schedule(1.0, [&] {
    sim.Cancel(pending);
    pending = sim.Schedule(3.0, [&] { fired_at.push_back(sim.Now()); });
  });
  sim.Schedule(2.0, [&] {
    sim.Cancel(pending);
    pending = sim.Schedule(4.0, [&] { fired_at.push_back(sim.Now()); });
  });
  sim.Run();
  ASSERT_EQ(fired_at.size(), 1u);
  EXPECT_DOUBLE_EQ(fired_at[0], 6.0);
}

// Bounded-run clock rule: Run(until) advances the clock to `until` iff a
// non-cancelled event is still queued past the bound. Tombstones stay queued,
// so PeekNextTime() keeps reporting the earliest of them.

TEST(Simulator, BoundedRunAdvancesPastTombstoneOnTopWithLiveEventBehind) {
  Simulator sim;
  sim.Schedule(1.0, [] {});
  const auto tombstone = sim.Schedule(20.0, [] {});
  sim.Schedule(30.0, [] {});
  sim.Cancel(tombstone);
  EXPECT_EQ(sim.Run(15.0), 1u);
  EXPECT_DOUBLE_EQ(sim.Now(), 15.0);
  EXPECT_DOUBLE_EQ(sim.PeekNextTime(), 20.0);
}

TEST(Simulator, BoundedRunStaysPutWhenOnlyTombstonesRemainPastBound) {
  Simulator sim;
  sim.Schedule(1.0, [] {});
  sim.Cancel(sim.Schedule(20.0, [] {}));
  sim.Cancel(sim.Schedule(30.0, [] {}));
  EXPECT_EQ(sim.Run(15.0), 1u);
  EXPECT_DOUBLE_EQ(sim.Now(), 1.0);
  EXPECT_DOUBLE_EQ(sim.PeekNextTime(), 20.0);
  EXPECT_TRUE(sim.Idle());
}

TEST(Simulator, BoundedRunAdvancesOnLiveTopDespiteStaleCancel) {
  Simulator sim;
  const auto fired = sim.Schedule(1.0, [] {});
  sim.Schedule(20.0, [] {});
  sim.Run(5.0);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
  sim.Cancel(fired);  // stale: the set now holds as many ids as the queue
  EXPECT_EQ(sim.Run(10.0), 0u);
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
  EXPECT_DOUBLE_EQ(sim.PeekNextTime(), 20.0);
}

TEST(Simulator, BoundedRunFindsLiveEventBehindTombstoneAmongStaleCancels) {
  // Stale cancels outnumber the queue, so neither the live-top test nor the
  // set-size shortcut decides: the exact sweep must find the live event.
  Simulator sim;
  const auto a = sim.Schedule(1.0, [] {});
  const auto b = sim.Schedule(2.0, [] {});
  const auto tombstone = sim.Schedule(20.0, [] {});
  sim.Schedule(30.0, [] {});
  sim.Run(3.0);
  sim.Cancel(a);
  sim.Cancel(b);
  sim.Cancel(tombstone);
  EXPECT_EQ(sim.Run(15.0), 0u);
  EXPECT_DOUBLE_EQ(sim.Now(), 15.0);
  EXPECT_DOUBLE_EQ(sim.PeekNextTime(), 20.0);
  EXPECT_FALSE(sim.Idle());
}

TEST(Simulator, EventCountTracked) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.Schedule(static_cast<double>(i), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

}  // namespace
}  // namespace silica
