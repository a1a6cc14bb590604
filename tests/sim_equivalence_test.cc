// Differential tests pinning the rebuilt event engine (InlineEvent + calendar
// queue) to the binary-heap reference it replaced. The determinism contract is
// that events fire in exact lexicographic (time, id) order with FIFO tie-break
// among simultaneous events; these tests replay randomized schedule / cancel /
// zero-delay / tie workloads through both engines and require identical
// execution logs (and, across bounded Run(until) slices, identical clocks), and
// separately stress the paths the calendar queue added
// (bucket resizes, fill/drain cycles, tombstone purges).
#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/calendar_queue.h"
#include "sim/simulator.h"

namespace silica {
namespace {

// The previous engine's store, kept as the ordering oracle: a binary heap of
// (time, id) with the same tombstone-cancel protocol Simulator uses.
class ReferenceSimulator {
 public:
  using EventId = uint64_t;

  double Now() const { return now_; }

  EventId Schedule(double delay, std::function<void()> fn) {
    const EventId id = next_id_++;
    queue_.push(Event{now_ + delay, id, std::move(fn)});
    queued_.insert(id);
    return id;
  }

  void Cancel(EventId id) { cancelled_.insert(id); }

  uint64_t Run(double until = 1e30) {
    uint64_t executed = 0;
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      if (top.time > until) {
        break;
      }
      Event event{top.time, top.id, std::move(const_cast<Event&>(top).fn)};
      queue_.pop();
      queued_.erase(event.id);
      if (cancelled_.erase(event.id) != 0) {
        continue;
      }
      now_ = event.time;
      event.fn();
      ++executed;
    }
    // Clock rule: a bounded run ends at `until` iff a non-cancelled event is
    // still queued; otherwise the clock stays at the last fired event.
    if (now_ < until && until != 1e30) {
      for (const EventId id : queued_) {
        if (cancelled_.count(id) == 0) {
          now_ = until;
          break;
        }
      }
    }
    return executed;
  }

 private:
  struct Event {
    double time;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.id > b.id;
    }
  };

  double now_ = 0.0;
  EventId next_id_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> queued_;
  std::unordered_set<EventId> cancelled_;
};

// Executed-event log: (fire time, event id). Identical logs mean identical
// (time, id) pop order — the whole determinism contract.
using Log = std::vector<std::pair<double, uint64_t>>;

// Replays one randomized workload: every fired event logs itself, then (driven
// by the shared rng, so both engines see the same decisions as long as they
// fire in the same order) schedules 0-2 successors and sometimes cancels a
// random live id. Delays are drawn from a small quantized set so exact ties and
// zero delays are frequent.
template <typename Sim>
Log Replay(uint64_t seed, int initial_events, uint64_t max_events) {
  Sim sim;
  Rng rng(seed);
  Log log;
  std::vector<uint64_t> live;
  uint64_t budget = max_events;
  // Both engines hand out ids sequentially from 1, so a mirrored counter lets
  // each callback capture its own id by value; the EXPECT pins the mirroring.
  uint64_t next_id = 1;

  std::function<void(uint64_t)> body = [&](uint64_t my_id) {
    log.emplace_back(sim.Now(), my_id);
    if (budget == 0) {
      return;
    }
    const int successors = static_cast<int>(rng.UniformInt(0, 2));
    for (int s = 0; s < successors && budget > 0; ++s) {
      --budget;
      // Quantized delays: ~25% zero (same-time FIFO), rest on a 0.25 s grid so
      // distinct events frequently collide on the same timestamp.
      const double delay =
          rng.Bernoulli(0.25) ? 0.0
                              : static_cast<double>(rng.UniformInt(1, 16)) * 0.25;
      const uint64_t my = next_id++;
      const uint64_t got = sim.Schedule(delay, [&body, my] { body(my); });
      EXPECT_EQ(got, my);
      live.push_back(my);
    }
    if (!live.empty() && rng.Bernoulli(0.3)) {
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      sim.Cancel(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  };

  for (int i = 0; i < initial_events; ++i) {
    --budget;
    const double delay = static_cast<double>(rng.UniformInt(0, 8)) * 0.5;
    const uint64_t my = next_id++;
    const uint64_t got = sim.Schedule(delay, [&body, my] { body(my); });
    EXPECT_EQ(got, my);
    live.push_back(my);
  }
  sim.Run();
  return log;
}

TEST(SimEquivalence, RandomizedWorkloadsMatchReferenceHeap) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const Log engine = Replay<Simulator>(seed, 8, 4000);
    const Log reference = Replay<ReferenceSimulator>(seed, 8, 4000);
    ASSERT_EQ(engine.size(), reference.size()) << "seed " << seed;
    for (size_t i = 0; i < engine.size(); ++i) {
      ASSERT_EQ(engine[i], reference[i])
          << "seed " << seed << " diverged at event " << i;
    }
  }
}

// Bounded slices: between Run(until) calls the test schedules fresh events,
// cancels pending ones (sometimes all of them, leaving only tombstones) and
// re-cancels fired ones (stale cancels). Fired events may schedule a
// successor. Records the clock after every slice next to the executed log.
struct SliceTrace {
  Log log;
  std::vector<double> clocks;
};

template <typename Sim>
SliceTrace ReplaySlices(uint64_t seed, int slices) {
  Sim sim;
  Rng rng(seed);
  SliceTrace trace;
  std::vector<uint64_t> pending;  // scheduled, neither fired nor cancelled
  std::vector<uint64_t> fired;
  // Ids are handed out sequentially from 1 by both engines (as in Replay).
  uint64_t next_id = 1;
  const auto pick = [&rng](const std::vector<uint64_t>& ids) {
    return static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1));
  };
  std::function<void(uint64_t)> body;
  const auto schedule = [&] {
    const double delay = static_cast<double>(rng.UniformInt(0, 24)) * 0.25;
    const uint64_t my = next_id++;
    EXPECT_EQ(sim.Schedule(delay, [&body, my] { body(my); }), my);
    pending.push_back(my);
  };
  body = [&](uint64_t my_id) {
    trace.log.emplace_back(sim.Now(), my_id);
    pending.erase(std::find(pending.begin(), pending.end(), my_id));
    fired.push_back(my_id);
    if (rng.Bernoulli(0.3)) {
      schedule();
    }
  };

  for (int slice = 0; slice < slices; ++slice) {
    const int fresh = static_cast<int>(rng.UniformInt(0, 3));
    for (int i = 0; i < fresh; ++i) {
      schedule();
    }
    if (!pending.empty() && rng.Bernoulli(0.1)) {
      for (const uint64_t id : pending) {
        sim.Cancel(id);
      }
      pending.clear();
    }
    const int cancels = static_cast<int>(rng.UniformInt(0, 2));
    for (int i = 0; i < cancels && !pending.empty(); ++i) {
      const size_t at = pick(pending);
      sim.Cancel(pending[at]);
      pending[at] = pending.back();
      pending.pop_back();
    }
    if (!fired.empty() && rng.Bernoulli(0.4)) {
      sim.Cancel(fired[pick(fired)]);  // stale: already fired
    }
    sim.Run(sim.Now() + static_cast<double>(rng.UniformInt(0, 12)) * 0.25);
    trace.clocks.push_back(sim.Now());
  }
  return trace;
}

TEST(SimEquivalence, BoundedRunsMatchReferenceLogAndClock) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const SliceTrace engine = ReplaySlices<Simulator>(seed, 300);
    const SliceTrace reference = ReplaySlices<ReferenceSimulator>(seed, 300);
    ASSERT_EQ(engine.log, reference.log) << "seed " << seed;
    ASSERT_EQ(engine.clocks.size(), reference.clocks.size());
    for (size_t i = 0; i < engine.clocks.size(); ++i) {
      ASSERT_EQ(engine.clocks[i], reference.clocks[i])
          << "seed " << seed << " clock diverged after slice " << i;
    }
  }
}

TEST(SimEquivalence, MassTiesPreserveFifoOrder) {
  // Hundreds of events on one timestamp must fire in schedule (id) order —
  // within one calendar bucket the FIFO tie-break is pure min-selection.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 500; ++i) {
    sim.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimEquivalence, FillDrainCyclesStayExact) {
  // Batched fill / full drain churns the calendar ring's grow path and the
  // no-shrink-on-pop policy; order must stay exact across many cycles and the
  // clock must advance monotonically through each batch.
  Simulator sim;
  Rng rng(99);
  double watermark = 0.0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    std::vector<double> fired;
    for (int i = 0; i < 3000; ++i) {
      sim.Schedule(rng.Uniform(0.0, 5.0),
                   [&fired, &sim] { fired.push_back(sim.Now()); });
    }
    sim.Run();
    ASSERT_EQ(fired.size(), 3000u);
    ASSERT_GE(fired.front(), watermark);
    for (size_t i = 1; i < fired.size(); ++i) {
      ASSERT_LE(fired[i - 1], fired[i]);
    }
    watermark = fired.back();
  }
}

TEST(SimEquivalence, SparseFarFutureTailRewidths) {
  // A dense burst followed by a sparse far-future tail forces the fruitless
  // year scan to re-width (and right-size) the ring; the tail must still fire
  // in order at the right times.
  Simulator sim;
  std::vector<double> fired;
  for (int i = 0; i < 2000; ++i) {
    sim.Schedule(static_cast<double>(i) * 1e-4,
                 [&fired, &sim] { fired.push_back(sim.Now()); });
  }
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(1e6 + static_cast<double>(i) * 1e5,
                 [&fired, &sim] { fired.push_back(sim.Now()); });
  }
  sim.Run();
  ASSERT_EQ(fired.size(), 2005u);
  for (size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1], fired[i]);
  }
  EXPECT_DOUBLE_EQ(fired.back(), 1e6 + 4e5);
}

TEST(SimEquivalence, TombstonePurgeStress) {
  // Cancel storms where most cancels target already-fired events: the
  // tombstone set must stay bounded and never suppress a live event. The purge
  // threshold is 2 * queue + 64, so cancelling thousands of dead ids against a
  // tiny queue forces many purge cycles.
  Simulator sim;
  uint64_t fired = 0;
  std::vector<Simulator::EventId> ids;
  for (int round = 0; round < 50; ++round) {
    ids.clear();
    for (int i = 0; i < 200; ++i) {
      ids.push_back(sim.Schedule(static_cast<double>(i) * 1e-3, [&fired] { ++fired; }));
    }
    sim.Run();
    // Everything fired; now cancel every id after the fact (all stale).
    for (const auto id : ids) {
      sim.Cancel(id);
    }
  }
  EXPECT_EQ(fired, 50u * 200u);
  // Live cancels still work after the storms.
  const auto id = sim.Schedule(1.0, [&fired] { ++fired; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_EQ(fired, 50u * 200u);
  EXPECT_TRUE(sim.Idle());
}

TEST(InlineEventDirect, SmallCapturesStayInlineLargeOnesUseTheArena) {
  int fired = 0;
  // Typical twin capture: pointer + a couple of ids — well under 64 bytes.
  uint64_t a = 7, b = 9;
  InlineEvent small([&fired, a, b] { fired += static_cast<int>(a + b); });
  EXPECT_TRUE(small.is_inline());
  small();
  EXPECT_EQ(fired, 16);

  // Oversized capture spills to the thread-local freelist but still fires, and
  // survives moves (heap targets transfer by pointer).
  struct Big {
    unsigned char payload[128];
  };
  Big big{};
  big.payload[0] = 42;
  InlineEvent large([&fired, big] { fired += big.payload[0]; });
  EXPECT_FALSE(large.is_inline());
  InlineEvent moved(std::move(large));
  EXPECT_FALSE(static_cast<bool>(large));
  moved();
  EXPECT_EQ(fired, 58);

  // Freed oversized blocks are reused by the next same-class allocation
  // instead of round-tripping malloc.
  void* block = internal::EventArena::Allocate(sizeof(Big));
  internal::EventArena::Deallocate(block, sizeof(Big));
  void* reused = internal::EventArena::Allocate(sizeof(Big));
  EXPECT_EQ(reused, block);
  internal::EventArena::Deallocate(reused, sizeof(Big));
}

TEST(CalendarQueueDirect, GrowsAndRightSizesAroundPopulation) {
  CalendarQueue queue;
  for (uint64_t i = 0; i < 10000; ++i) {
    queue.Push(static_cast<double>(i % 97) * 0.01, i + 1, InlineEvent([] {}));
  }
  EXPECT_GE(queue.bucket_count(), 10000u / 2);
  std::pair<double, uint64_t> last{-1.0, 0};
  while (!queue.empty()) {
    const SimEvent event = queue.PopTop();
    const std::pair<double, uint64_t> key{event.time, event.id};
    ASSERT_LT(last, key);
    last = key;
  }
  // Pops never shrink the ring.
  EXPECT_GE(queue.bucket_count(), 10000u / 2);
  // A push into an empty queue jumps the scan cursor straight to the event, so
  // a lone far-future event costs nothing even with the stale dense-burst
  // geometry...
  queue.Push(1e9, 1u << 20, InlineEvent([] {}));
  queue.Push(2e9, 1u << 21, InlineEvent([] {}));
  EXPECT_EQ(queue.Top().id, 1u << 20);
  EXPECT_DOUBLE_EQ(queue.PopTop().time, 1e9);
  // ...while reaching the *next* far-future event forces a fruitless year scan,
  // whose rebuild re-widths AND right-sizes the oversized ring.
  EXPECT_EQ(queue.Top().id, 1u << 21);
  EXPECT_LT(queue.bucket_count(), 10000u / 2);
  EXPECT_DOUBLE_EQ(queue.PopTop().time, 2e9);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace silica
