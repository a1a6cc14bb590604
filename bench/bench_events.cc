// Event-loop microbenchmark: the rebuilt engine (InlineEvent callbacks + calendar
// queue, src/sim/) against an embedded copy of the engine it replaced
// (std::function callbacks + std::priority_queue binary heap + the same tombstone
// protocol). Three workloads shaped like the twin's control plane:
//
//   * schedule_heavy — self-rescheduling event chains (the drive/shuttle service
//     loops): every pop schedules a successor with a 24..32-byte capture, the
//     profile that makes std::function heap-allocate on every event;
//   * cancel_heavy  — batched schedule-then-cancel (timeout churn): 60% of
//     scheduled events are cancelled before they fire, stressing the tombstone
//     set and the purge;
//   * mixed_replay  — request arrival / completion / timeout interplay with
//     zero-delay follow-ups and quantized (tied) timestamps, the general
//     control-plane mix.
//
// Both engines run the *same* deterministic workload (shared RNG advanced by
// execution order) and must produce identical checksums — a mismatch means the
// (time, id) pop order diverged and the run aborts. `--json` emits one object for
// trajectory tracking (tools/check.sh smoke-runs it and CI keeps
// BENCH_events.json); `--ops=N` scales the per-workload operation count.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace silica {
namespace {

// ---------------------------------------------------------------------------
// The previous engine, embedded verbatim (minus telemetry plumbing): heap-backed
// priority queue of {time, id, std::function}, lexicographic (time, id) pops,
// cancel tombstones purged when stale entries dominate. This is the baseline the
// production engine's 2x events/sec claim is measured against.
// ---------------------------------------------------------------------------
class HeapSimulator {
 public:
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;
  static constexpr SimTime kForever = 1e30;

  SimTime Now() const { return now_; }

  EventId Schedule(SimTime delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  EventId ScheduleAt(SimTime when, std::function<void()> fn) {
    const EventId id = next_id_++;
    queue_.push(Event{when, id, std::move(fn)});
    return id;
  }

  void Cancel(EventId id) {
    if (id == kInvalidEvent || id >= next_id_) {
      return;
    }
    if (!cancelled_.insert(id).second) {
      return;
    }
    if (cancelled_.size() > 2 * queue_.size() + 64) {
      PurgeStaleTombstones();
    }
  }

  uint64_t Run(SimTime until = kForever) {
    uint64_t executed = 0;
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      if (top.time > until) {
        break;
      }
      Event event{top.time, top.id, std::move(const_cast<Event&>(top).fn)};
      queue_.pop();
      const auto it = cancelled_.find(event.id);
      if (it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      now_ = event.time;
      event.fn();
      ++executed;
    }
    if (now_ < until && until != kForever) {
      now_ = until;
    }
    return executed;
  }

 private:
  struct Event {
    SimTime time;
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
  struct EventQueue : std::priority_queue<Event, std::vector<Event>, Later> {
    using std::priority_queue<Event, std::vector<Event>, Later>::c;
  };

  void PurgeStaleTombstones() {
    std::unordered_set<EventId> queued;
    queued.reserve(cancelled_.size());
    for (const Event& event : queue_.c) {
      if (cancelled_.count(event.id) != 0) {
        queued.insert(event.id);
      }
    }
    cancelled_ = std::move(queued);
  }

  SimTime now_ = 0.0;
  EventId next_id_ = 1;
  EventQueue queue_;
  std::unordered_set<EventId> cancelled_;
};

// ---------------------------------------------------------------------------
// Workloads. Each is a template over the engine so both run byte-for-byte the
// same logic; the shared Rng is advanced in execution order, so checksums match
// exactly when (and only when) the engines pop events in the same order.
// ---------------------------------------------------------------------------

struct RunResult {
  uint64_t ops = 0;       // schedule + cancel calls issued
  uint64_t checksum = 0;  // order-sensitive digest of the executed events
  double seconds = 0.0;
};

template <typename Sim>
struct ChainState {
  Sim* sim = nullptr;
  Rng rng{0};
  uint64_t remaining = 0;
  uint64_t ops = 0;
  uint64_t checksum = 0;
};

// One link of a self-rescheduling chain. The capture below (pointer + three
// payload words = 32 bytes) matches the twin's typical `[this, &shuttle,
// platter, request]` profile: over std::function's 16-byte inline buffer, under
// InlineEvent's 64-byte one.
template <typename Sim>
void ChainStep(ChainState<Sim>* st, uint64_t a, uint64_t b, uint64_t c) {
  st->checksum = st->checksum * 31 + (a ^ b) + c +
                 static_cast<uint64_t>(st->sim->Now() * 1e3);
  if (st->remaining == 0) {
    return;
  }
  --st->remaining;
  ++st->ops;
  const uint64_t na = st->rng.NextU64();
  const double delay = static_cast<double>(na % 997) * 1e-3;
  st->sim->Schedule(delay, [st, na, nb = na ^ a, nc = b] {
    ChainStep(st, na, nb, nc);
  });
}

template <typename Sim>
RunResult ScheduleHeavy(uint64_t target_ops) {
  constexpr int kChains = 1024;  // pending-event population the heap must sort
  Sim sim;
  ChainState<Sim> st;
  st.sim = &sim;
  st.rng = Rng(17);
  st.remaining = target_ops;
  const auto start = std::chrono::steady_clock::now();
  ChainState<Sim>* stp = &st;
  for (int i = 0; i < kChains && st.remaining > 0; ++i) {
    --st.remaining;
    ++st.ops;
    const uint64_t a = st.rng.NextU64();
    sim.Schedule(static_cast<double>(a % 997) * 1e-3,
                 [stp, a, b = a >> 7, c = a << 3] { ChainStep(stp, a, b, c); });
  }
  sim.Run();
  RunResult r;
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  r.ops = st.ops;
  r.checksum = st.checksum;
  return r;
}

template <typename Sim>
RunResult CancelHeavy(uint64_t target_ops) {
  constexpr uint64_t kBatch = 4096;
  Sim sim;
  Rng rng(29);
  RunResult r;
  std::vector<typename Sim::EventId> ids;
  ids.reserve(kBatch);
  uint64_t checksum = 0;
  const auto start = std::chrono::steady_clock::now();
  while (r.ops < target_ops) {
    ids.clear();
    for (uint64_t i = 0; i < kBatch; ++i) {
      const uint64_t x = rng.NextU64();
      ids.push_back(sim.Schedule(static_cast<double>(x % 4999) * 1e-4,
                                 [&checksum, x] { checksum = checksum * 31 + x; }));
      ++r.ops;
    }
    for (const auto id : ids) {
      if (rng.NextU64() % 10 < 6) {  // cancel 60% before they fire
        sim.Cancel(id);
        ++r.ops;
      }
    }
    sim.Run();
  }
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  r.checksum = checksum;
  return r;
}

template <typename Sim>
struct MixState {
  Sim* sim = nullptr;
  Rng rng{0};
  uint64_t remaining = 0;
  uint64_t ops = 0;
  uint64_t checksum = 0;
};

constexpr bool service_beats_timeout(uint64_t x) { return x % 11000 < 10000; }

// One request: arrival schedules a timeout and a completion; the completion
// (usually first) cancels the timeout and chains the next arrival, sometimes
// with zero delay. Timestamps are quantized to 1 ms so ties are common and the
// FIFO tie-break is continuously exercised.
template <typename Sim>
void Arrival(MixState<Sim>* st) {
  st->checksum = st->checksum * 31 + static_cast<uint64_t>(st->sim->Now() * 1e3);
  if (st->remaining == 0) {
    return;
  }
  --st->remaining;
  const uint64_t x = st->rng.NextU64();
  st->ops += 3;  // timeout + completion + next arrival
  const auto timeout_id = st->sim->Schedule(
      10.0, [st, x] { st->checksum = st->checksum * 31 + (x | 1); });
  // 90% of completions beat the 10 s timeout; the rest let it fire.
  const double service = static_cast<double>(x % 11000) * 1e-3;
  st->sim->Schedule(service, [st, timeout_id, x] {
    if (service_beats_timeout(x)) {
      st->sim->Cancel(timeout_id);
      ++st->ops;
    }
    st->checksum = st->checksum * 31 + x;
    const uint64_t y = st->rng.NextU64();
    // Zero-delay follow-up one time in four: same-timestamp FIFO ordering.
    const double gap = (y % 4 == 0) ? 0.0 : static_cast<double>(y % 503) * 1e-3;
    st->sim->Schedule(gap, [st] { Arrival(st); });
  });
}

template <typename Sim>
RunResult MixedReplay(uint64_t target_ops) {
  constexpr int kStreams = 256;
  Sim sim;
  MixState<Sim> st;
  st.sim = &sim;
  st.rng = Rng(43);
  st.remaining = target_ops / 4;  // each request issues ~4 ops
  MixState<Sim>* stp = &st;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kStreams; ++i) {
    sim.Schedule(static_cast<double>(i) * 1e-3, [stp] { Arrival(stp); });
    ++st.ops;
  }
  sim.Run();
  RunResult r;
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  r.ops = st.ops;
  r.checksum = st.checksum;
  return r;
}

// ---------------------------------------------------------------------------
// Harness: warm up both engines, time them, insist on matching checksums.
// ---------------------------------------------------------------------------

struct Comparison {
  const char* name;
  RunResult engine;  // production Simulator
  RunResult heap;    // embedded baseline
  double speedup() const { return heap.seconds / engine.seconds; }
  double engine_eps() const { return static_cast<double>(engine.ops) / engine.seconds; }
  double heap_eps() const { return static_cast<double>(heap.ops) / heap.seconds; }
};

template <RunResult (*NewFn)(uint64_t), RunResult (*OldFn)(uint64_t)>
Comparison Compare(const char* name, uint64_t ops) {
  NewFn(ops / 16 + 1);  // warm both allocators and the branch predictor
  OldFn(ops / 16 + 1);
  Comparison c;
  c.name = name;
  c.engine = NewFn(ops);
  c.heap = OldFn(ops);
  if (c.engine.checksum != c.heap.checksum || c.engine.ops != c.heap.ops) {
    std::fprintf(stderr,
                 "bench_events: %s diverged: engine ops=%llu sum=%llu, "
                 "heap ops=%llu sum=%llu\n",
                 name, static_cast<unsigned long long>(c.engine.ops),
                 static_cast<unsigned long long>(c.engine.checksum),
                 static_cast<unsigned long long>(c.heap.ops),
                 static_cast<unsigned long long>(c.heap.checksum));
    std::exit(1);
  }
  return c;
}

int Run(bool json, uint64_t ops) {
  const Comparison results[] = {
      Compare<&ScheduleHeavy<Simulator>, &ScheduleHeavy<HeapSimulator>>(
          "schedule_heavy", ops),
      Compare<&CancelHeavy<Simulator>, &CancelHeavy<HeapSimulator>>(
          "cancel_heavy", ops),
      Compare<&MixedReplay<Simulator>, &MixedReplay<HeapSimulator>>(
          "mixed_replay", ops),
  };

  if (json) {
    std::vector<std::string> items;
    for (const auto& c : results) {
      items.push_back(JsonObject()
                          .Field("workload", c.name)
                          .Field("ops", c.engine.ops)
                          .Field("engine_events_per_sec", c.engine_eps())
                          .Field("heap_events_per_sec", c.heap_eps())
                          .Field("speedup", c.speedup())
                          .Field("checksum", c.engine.checksum)
                          .Str());
    }
    std::printf("%s\n", JsonObject()
                            .Field("bench", "events")
                            .FieldRaw("host", HostJson())
                            .Field("ops_per_workload", ops)
                            .FieldRaw("workloads", JsonArray(items))
                            .Str()
                            .c_str());
    return 0;
  }

  Header("Event-loop microbenchmark: calendar queue + InlineEvent vs "
         "binary heap + std::function");
  std::printf("%-16s %12s %16s %16s %8s\n", "workload", "ops", "engine ev/s",
              "heap ev/s", "speedup");
  for (const auto& c : results) {
    std::printf("%-16s %12llu %16.0f %16.0f %7.2fx\n", c.name,
                static_cast<unsigned long long>(c.engine.ops), c.engine_eps(),
                c.heap_eps(), c.speedup());
  }
  std::printf(
      "\nBoth engines replay identical deterministic workloads and their\n"
      "order-sensitive checksums are required to match, so the speedup is\n"
      "measured on provably equivalent behavior.\n");
  return 0;
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  bool json = false;
  uint64_t ops = 2'000'000;
  silica::FlagSet flags("bench_events",
                        "Event loop: calendar queue + InlineEvent vs binary "
                        "heap + std::function.");
  flags.Bool("json", &json, "one JSON object on stdout")
      .Uint("ops", &ops, "operations per workload");
  return silica::RunBench(argc, argv, flags, [&] {
    if (ops < 1) {
      throw silica::FlagError("--ops must be >= 1");
    }
    return silica::Run(json, ops);
  });
}
