// Twin checkpoint/restore tests (DESIGN.md section 17).
//
// The contract under test: a checkpoint taken mid-run and restored into a
// fresh engine replays the remainder of the simulation *byte-identically* to
// the uninterrupted run — same result struct, same metrics registry, same
// everything. The tests sweep seeds and snapshot times against configs that
// exercise every serialized subsystem (faults, scrub, aging, lazy repair, the
// write pipeline), and additionally pin the knobs-off guarantee: enabling
// capture must not perturb the run it snapshots.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/state_io.h"
#include "common/units.h"
#include "core/library_sim.h"
#include "core/partitioning.h"
#include "core/request_scheduler.h"
#include "core/scrub.h"
#include "core/sharded_scheduler.h"
#include "ecc/lazy_repair.h"
#include "faults/fault_injector.h"
#include "faults/media_aging.h"
#include "federation/federation.h"
#include "library/panel.h"
#include "library/rail_traffic.h"
#include "sim/durability_model.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "workload/trace_gen.h"

namespace silica {
namespace {

// ---------------------------------------------------------------------------
// Substrate: explicit RNG and fault-injector state round-trips.
// ---------------------------------------------------------------------------

TEST(RngState, RoundTripResumesIdenticalStreamAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    // Burn a prefix so the saved state is mid-stream, not the seed state.
    for (int i = 0; i < 17; ++i) {
      rng.NextU64();
    }
    StateWriter w;
    w(rng);
    const auto bytes = w.Take();

    Rng restored(0);  // deliberately different seed; loading must override
    StateReader r(bytes);
    r(restored);
    EXPECT_TRUE(r.AtEnd()) << "seed " << seed;

    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(rng.NextU64(), restored.NextU64())
          << "seed " << seed << " diverged at draw " << i;
    }
    // Forked children agree too (fork state is derived from the stream state).
    Rng fa = rng.Fork(99);
    Rng fb = restored.Fork(99);
    EXPECT_EQ(fa.NextU64(), fb.NextU64()) << "seed " << seed;
  }
}

struct NullHost : FaultHost {
  void OnShuttleDown(int) override {}
  void OnShuttleRepaired(int) override {}
  void OnDriveDown(int) override {}
  void OnDriveRepaired(int) override {}
  void OnRackDown(int) override {}
  void OnRackRepaired(int) override {}
};

struct RecordedFault {
  double time;
  char kind;
  int id;
  bool operator==(const RecordedFault& o) const {
    return time == o.time && kind == o.kind && id == o.id;
  }
};

struct TapeHost : FaultHost {
  explicit TapeHost(Simulator& s) : sim(s) {}
  void OnShuttleDown(int s) override { tape.push_back({sim.Now(), 'S', s}); }
  void OnShuttleRepaired(int s) override { tape.push_back({sim.Now(), 's', s}); }
  void OnDriveDown(int d) override { tape.push_back({sim.Now(), 'D', d}); }
  void OnDriveRepaired(int d) override { tape.push_back({sim.Now(), 'd', d}); }
  void OnRackDown(int r) override { tape.push_back({sim.Now(), 'R', r}); }
  void OnRackRepaired(int r) override { tape.push_back({sim.Now(), 'r', r}); }
  Simulator& sim;
  std::vector<RecordedFault> tape;
};

FaultConfig MixedFaults() {
  FaultConfig config;
  config.shuttle = FaultProcess::Exponential(300.0, 40.0);
  config.drive = FaultProcess::Exponential(500.0, 60.0);
  config.rack = FaultProcess::Exponential(900.0, 80.0);
  config.inject_until_s = 6000.0;
  return config;
}

// Run the injector to `pause_at`, checkpoint (renewal state + pending events),
// restore into a fresh simulator, and require the fault tape after the pause
// to match an uninterrupted run exactly, for 50 seeds.
TEST(FaultInjectorState, RoundTripReplaysIdenticalScheduleAcrossSeeds) {
  const auto config = MixedFaults();
  const double pause_at = 1500.0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    // Reference: uninterrupted run.
    Simulator ref_sim;
    TapeHost ref_host(ref_sim);
    FaultInjector ref(ref_sim, ref_host, config, Rng(seed), 4, 3, 2);
    ref.Start();
    ref_sim.Run();

    // Capture run: pause, save renewal state + pending, abandon.
    Simulator cap_sim;
    TapeHost cap_host(cap_sim);
    FaultInjector cap(cap_sim, cap_host, config, Rng(seed), 4, 3, 2);
    cap.Start();
    cap_sim.Run(pause_at);
    StateWriter w;
    w(cap);
    std::vector<FaultInjector::PendingFault> pending;
    cap.CollectPending(pending);
    const auto bytes = w.Take();

    // Resume run: fresh engine + injector, load, re-arm in original id order
    // (CollectPending already reports them in schedule order).
    Simulator res_sim;
    TapeHost res_host(res_sim);
    FaultInjector res(res_sim, res_host, config, Rng(seed + 1), 4, 3, 2);
    StateReader r(bytes);
    r(res);
    ASSERT_TRUE(r.AtEnd()) << "seed " << seed;
    res_sim.Restore(pause_at, 0, 0, 0);
    for (const auto& p : pending) {
      if (p.is_repair) {
        res.RearmRepairAt(p.component, p.at);
      } else {
        res.RearmFailureAt(p.component, p.at);
      }
    }
    res_sim.Run();

    // Tail of the reference tape (events after the pause) == resumed tape.
    std::vector<RecordedFault> ref_tail;
    for (const auto& e : ref_host.tape) {
      if (e.time > pause_at) {
        ref_tail.push_back(e);
      }
    }
    ASSERT_EQ(ref_tail.size(), res_host.tape.size()) << "seed " << seed;
    for (size_t i = 0; i < ref_tail.size(); ++i) {
      ASSERT_EQ(ref_tail[i], res_host.tape[i])
          << "seed " << seed << " fault " << i << " diverged";
    }
    // Class stats continue from the capture point and land on the reference.
    EXPECT_EQ(ref.shuttle_stats().failures, res.shuttle_stats().failures)
        << "seed " << seed;
    EXPECT_EQ(ref.drive_stats().repairs, res.drive_stats().repairs)
        << "seed " << seed;
  }
}

TEST(FaultInjectorState, LoadStateRejectsComponentCountMismatch) {
  Simulator sim;
  NullHost host;
  const auto config = MixedFaults();
  FaultInjector a(sim, host, config, Rng(1), 4, 3, 2);
  StateWriter w;
  w(a);
  const auto bytes = w.Take();

  Simulator sim2;
  FaultInjector b(sim2, host, config, Rng(1), 5, 3, 2);
  StateReader r(bytes);
  EXPECT_THROW(r(b), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Full-twin checkpoint/restore byte-identity.
// ---------------------------------------------------------------------------

LibrarySimConfig TwinConfig(uint64_t seed) {
  LibrarySimConfig config;
  config.library.policy = LibraryConfig::Policy::kPartitioned;
  config.library.num_shuttles = 8;
  config.library.storage_racks = 6;
  config.num_info_platters = 400;  // 25 complete 16+3 sets
  config.seed = seed;
  return config;
}

ReadTrace UniformTrace(int count, double spacing_s, uint64_t platters,
                       uint64_t bytes) {
  ReadTrace trace;
  for (int i = 0; i < count; ++i) {
    ReadRequest r;
    r.id = static_cast<uint64_t>(i + 1);
    r.arrival = i * spacing_s;
    r.file_id = r.id;
    r.bytes = bytes;
    r.platter = static_cast<uint64_t>(i) % platters;
    trace.push_back(r);
  }
  return trace;
}

std::vector<uint8_t> ResultBytes(const LibrarySimResult& result) {
  StateWriter w;
  SaveLibrarySimResult(w, result);
  return w.Take();
}

// The everything-on config: scrub + media aging + all three mechanical fault
// classes + write pipeline + lazy repair. Every serialized subsystem is live.
LibrarySimConfig StormConfig(uint64_t seed) {
  auto config = TwinConfig(seed);
  config.faults.shuttle = FaultProcess::Exponential(1500.0, 200.0);
  config.faults.drive = FaultProcess::Exponential(2500.0, 300.0);
  config.faults.rack = FaultProcess::Exponential(4000.0, 400.0);
  config.faults.aging = MediaAgingConfig::Exponential(2.0 * 3600.0);
  config.scrub.enabled = true;
  config.scrub.platter_interval_s = 1800.0;
  config.scrub.track_sample_fraction = 0.2;
  config.write_platters_per_hour = 20.0;
  config.write_until = 2.0 * 3600.0;
  config.lazy_repair.enabled = true;
  config.lazy_repair.bandwidth_bytes_per_s = 2.0 * kMiB;
  config.lazy_repair.drain_interval_s = 30.0;
  return config;
}

// Acceptance criterion: restore replays byte-identically for >= 3 snapshot
// times across 50 seeds. The capture run's own result must also equal the
// plain run's (arming capture cannot perturb the simulation).
TEST(Checkpoint, RestoreIsByteIdenticalAcrossSeedsAndSnapshotTimes) {
  const double snapshot_times[] = {500.0, 2000.0, 6000.0};
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const auto config = StormConfig(seed);
    const auto trace =
        UniformTrace(120, 5.0, config.num_info_platters, 4 * kMiB);
    const auto baseline = ResultBytes(SimulateLibrary(config, trace));
    for (const double at : snapshot_times) {
      LibraryCheckpoint snapshot;
      const auto captured =
          SimulateLibraryWithCheckpoint(config, trace, at, &snapshot);
      ASSERT_FALSE(snapshot.bytes.empty()) << "seed " << seed << " at " << at;
      ASSERT_EQ(ResultBytes(captured), baseline)
          << "seed " << seed << ": capture at " << at
          << " s perturbed the run it snapshotted";
      const auto resumed = ResumeLibrary(config, trace, snapshot);
      ASSERT_EQ(ResultBytes(resumed), baseline)
          << "seed " << seed << ": restore from " << at
          << " s diverged from the uninterrupted run";
    }
  }
}

// With live metrics attached, the restored run's registry must export exactly
// what the uninterrupted run's does (counters are cumulative across the
// snapshot boundary, flushed once at end of run).
TEST(Checkpoint, RestoredMetricsRegistryMatchesUninterruptedRun) {
  const auto config_base = StormConfig(11);
  const auto trace =
      UniformTrace(120, 5.0, config_base.num_info_platters, 4 * kMiB);

  Telemetry ref_tel;
  auto ref_config = config_base;
  ref_config.telemetry = &ref_tel;
  const auto ref_result = SimulateLibrary(ref_config, trace);

  Telemetry cap_tel;
  auto cap_config = config_base;
  cap_config.telemetry = &cap_tel;
  LibraryCheckpoint snapshot;
  SimulateLibraryWithCheckpoint(cap_config, trace, 2000.0, &snapshot);

  Telemetry res_tel;
  auto res_config = config_base;
  res_config.telemetry = &res_tel;
  const auto res_result = ResumeLibrary(res_config, trace, snapshot);

  EXPECT_EQ(ResultBytes(res_result), ResultBytes(ref_result));
  StateWriter ref_w;
  ref_w(ref_tel.metrics);
  StateWriter res_w;
  res_w(res_tel.metrics);
  EXPECT_EQ(ref_w.Take(), res_w.Take())
      << "metrics registry diverged across the snapshot boundary";
}

// Knobs-off guarantee: on a config that predates every robustness feature,
// running with capture armed still produces the byte-identical figure-9 style
// result (no schedule perturbation from the descriptor bookkeeping).
TEST(Checkpoint, KnobsOffCaptureMatchesPlainRun) {
  for (uint64_t seed : {1ull, 9ull, 23ull}) {
    const auto config = TwinConfig(seed);
    const auto trace =
        UniformTrace(200, 5.0, config.num_info_platters, 4 * kMiB);
    const auto plain = ResultBytes(SimulateLibrary(config, trace));
    LibraryCheckpoint snapshot;
    const auto captured =
        SimulateLibraryWithCheckpoint(config, trace, 300.0, &snapshot);
    EXPECT_EQ(ResultBytes(captured), plain) << "seed " << seed;
    const auto resumed = ResumeLibrary(config, trace, snapshot);
    EXPECT_EQ(ResultBytes(resumed), plain) << "seed " << seed;
  }
}

// A snapshot taken after the workload resolves is legal: it captures the
// final state and restoring it replays an empty tail.
TEST(Checkpoint, SnapshotAfterCompletionRestoresFinalState) {
  const auto config = TwinConfig(5);
  const auto trace = UniformTrace(40, 5.0, config.num_info_platters, 4 * kMiB);
  const auto plain = ResultBytes(SimulateLibrary(config, trace));
  LibraryCheckpoint snapshot;
  const auto captured =
      SimulateLibraryWithCheckpoint(config, trace, 1.0e9, &snapshot);
  EXPECT_EQ(ResultBytes(captured), plain);
  EXPECT_EQ(ResultBytes(ResumeLibrary(config, trace, snapshot)), plain);
}

TEST(Checkpoint, ResumeRejectsConfigMismatch) {
  const auto config = TwinConfig(3);
  const auto trace = UniformTrace(60, 5.0, config.num_info_platters, 4 * kMiB);
  LibraryCheckpoint snapshot;
  SimulateLibraryWithCheckpoint(config, trace, 500.0, &snapshot);

  auto wrong_seed = config;
  wrong_seed.seed = 4;
  EXPECT_THROW(ResumeLibrary(wrong_seed, trace, snapshot), std::runtime_error);

  auto wrong_fleet = config;
  wrong_fleet.library.num_shuttles = 9;
  EXPECT_THROW(ResumeLibrary(wrong_fleet, trace, snapshot), std::runtime_error);

  auto wrong_code = config;
  wrong_code.platter_set_redundancy = 4;
  EXPECT_THROW(ResumeLibrary(wrong_code, trace, snapshot), std::runtime_error);

  LibraryCheckpoint truncated = snapshot;
  truncated.bytes.resize(truncated.bytes.size() / 2);
  EXPECT_THROW(ResumeLibrary(config, trace, truncated), std::runtime_error);
}

TEST(Checkpoint, CaptureRejectsTracingAndBadArguments) {
  const auto config_base = TwinConfig(2);
  const auto trace = UniformTrace(20, 5.0, config_base.num_info_platters,
                                  4 * kMiB);
  LibraryCheckpoint snapshot;
  EXPECT_THROW(
      SimulateLibraryWithCheckpoint(config_base, trace, -1.0, &snapshot),
      std::invalid_argument);
  EXPECT_THROW(SimulateLibraryWithCheckpoint(config_base, trace, 10.0, nullptr),
               std::invalid_argument);

  Telemetry traced;
  traced.tracer.Enable();
  auto config = config_base;
  config.telemetry = &traced;
  EXPECT_THROW(SimulateLibraryWithCheckpoint(config, trace, 10.0, &snapshot),
               std::invalid_argument);
  EXPECT_THROW(ResumeLibrary(config, trace, snapshot), std::invalid_argument);
}

// Result serialization itself must round-trip (the byte-identity tests lean
// on it as the comparator).
TEST(Checkpoint, ResultSerializationRoundTrips) {
  const auto config = StormConfig(17);
  const auto trace = UniformTrace(80, 5.0, config.num_info_platters, 4 * kMiB);
  const auto result = SimulateLibrary(config, trace);
  StateWriter w;
  SaveLibrarySimResult(w, result);
  const auto bytes = w.Take();
  StateReader r(bytes);
  LibrarySimResult reloaded;
  r(reloaded);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(ResultBytes(reloaded), bytes);
  EXPECT_EQ(reloaded.requests_completed, result.requests_completed);
  EXPECT_EQ(reloaded.scrub.ledger.detected, result.scrub.ledger.detected);
}

// ---------------------------------------------------------------------------
// Byte round-trip table: for every type with a Visit, Save -> Load -> Save
// reproduces the saved bytes exactly. Results, metrics and completion-time
// trackers come straight from a storm run; the twin's internal components
// (scheduler shards, partitioner, rails, scrub, lazy queue, fault injector)
// are driven through their own APIs with the storm trace, since the twin's
// instances are private to it.
// ---------------------------------------------------------------------------

using Bytes = std::vector<uint8_t>;

template <class T>
Bytes SaveBytes(const T& value) {
  StateWriter w;
  w(value);
  return w.Take();
}

// Saves `live`, loads the bytes into `fresh` (constructed with the same
// config-derived shape), and returns both saves.
template <class T>
std::pair<Bytes, Bytes> SaveLoadSave(const T& live, T& fresh) {
  Bytes first = SaveBytes(live);
  StateReader r(first);
  r(fresh);
  EXPECT_TRUE(r.AtEnd());
  return {std::move(first), SaveBytes(fresh)};
}

ReadTrace StormTrace(const LibrarySimConfig& config) {
  return UniformTrace(120, 5.0, config.num_info_platters, 4 * kMiB);
}

// Storm run with live metrics, shared by the table's rows.
struct StormRun {
  Telemetry telemetry;
  LibrarySimResult result;
  StormRun() {
    auto config = StormConfig(7);
    config.telemetry = &telemetry;
    result = SimulateLibrary(config, StormTrace(config));
  }
};
const StormRun& Storm() {
  static const StormRun run;
  return run;
}

// ctest lists each case by gtest's byte dump of this struct. A char array
// (not std::string, whose first bytes are a heap pointer) makes that dump begin
// with the type's ASCII, so listed names do not drift between builds. The
// object stays 64 bytes with libstdc++.
struct RoundTripCase {
  char type[32];
  std::function<std::pair<Bytes, Bytes>()> run;
};

std::vector<RoundTripCase> RoundTripCases() {
  // Platters repeat in this trace, so scheduler groups hold several requests.
  const ReadTrace trace = UniformTrace(120, 5.0, 37, 4 * kMiB);
  return {
      {"Rng",
       [] {
         Rng live = Rng(7).Fork(0xA9E5);
         live.Normal();  // leaves a cached Box-Muller variate
         Rng fresh(0);
         return SaveLoadSave(live, fresh);
       }},
      {"StreamingStats",
       [] {
         StreamingStats live;
         for (double q = 0.0; q <= 1.0; q += 0.01) {
           live.Add(Storm().result.completion_times.Percentile(q));
         }
         StreamingStats fresh;
         return SaveLoadSave(live, fresh);
       }},
      {"PercentileTracker",
       [] {
         PercentileTracker fresh;
         return SaveLoadSave(Storm().result.completion_times, fresh);
       }},
      {"Histogram",
       [] {
         Histogram fresh;
         return SaveLoadSave(*Storm().telemetry.metrics.FindHistogram(
                                 "library_completion_seconds"),
                             fresh);
       }},
      {"MetricsRegistry",
       [] {
         MetricsRegistry fresh;
         return SaveLoadSave(Storm().telemetry.metrics, fresh);
       }},
      {"LibrarySimResult",
       [] {
         LibrarySimResult fresh;
         return SaveLoadSave(Storm().result, fresh);
       }},
      {"ReadRequest",
       [trace] {
         ReadRequest live = trace[17];
         live.parent = 5;
         ReadRequest fresh;
         return SaveLoadSave(live, fresh);
       }},
      {"FaultInjector",
       [] {
         Simulator sim;
         NullHost host;
         FaultInjector live(sim, host, MixedFaults(), Rng(7), 4, 3, 2);
         live.Start();
         sim.Run(1500.0);
         Simulator fresh_sim;
         FaultInjector fresh(fresh_sim, host, MixedFaults(), Rng(8), 4, 3, 2);
         return SaveLoadSave(live, fresh);
       }},
      {"RailTraffic",
       [] {
         RailTraffic live(10, 8);
         Rng rng(7);
         for (int i = 0; i < 200; ++i) {
           live.Traverse(static_cast<int>(rng.UniformInt(0, 9)),
                         static_cast<int>(rng.UniformInt(0, 7)),
                         static_cast<int>(rng.UniformInt(0, 7)), 0.5 * i, 2.0);
         }
         RailTraffic fresh(10, 8);
         return SaveLoadSave(live, fresh);
       }},
      {"Partitioner",
       [] {
         const Panel panel(StormConfig(7).library);
         Partitioner live(panel, 8);
         for (int p = 0; p < live.size(); ++p) {
           const int right = live.RightNeighborOf(p);
           if (right >= 0) {
             live.ShiftBoundary(p, right);
           }
         }
         Partitioner fresh(panel, 8);
         return SaveLoadSave(live, fresh);
       }},
      {"RequestScheduler",
       [trace] {
         RequestScheduler live;
         live.ReservePlatters(400);
         for (const ReadRequest& request : trace) {
           live.Submit(request);
         }
         for (uint64_t platter = 0; platter < 37; platter += 3) {
           live.TakeRequests(platter, platter % 2 == 0);
         }
         RequestScheduler fresh;
         fresh.ReservePlatters(400);
         return SaveLoadSave(live, fresh);
       }},
      {"ShardedScheduler",
       [trace] {
         ShardedScheduler live;
         live.Init(4, 400);
         for (const ReadRequest& request : trace) {
           live.Submit(static_cast<int>(request.platter % 4), request);
         }
         live.TakeRequests(1, 5);
         live.MigrateQueue(6, 2, 3);
         live.ForEachDonor(0, 0, true, [](uint64_t, int) { return true; });
         ShardedScheduler fresh;
         fresh.Init(4, 400);
         return SaveLoadSave(live, fresh);
       }},
      {"ScrubScheduler",
       [] {
         ScrubConfig config;
         config.enabled = true;
         ScrubScheduler live;
         live.Init(config, 400);
         for (uint64_t p = 0; p < 400; p += 7) {
           live.RecordDamage(p, static_cast<RepairTier>(p % 4), p + 1);
         }
         live.MarkSuspect(42);
         live.MarkSuspect(9);
         live.health(410).last_scrub = 3.0;  // grown by the write pipeline
         live.SelectPlatter(100.0, [](uint64_t) { return true; });
         ScrubScheduler fresh;
         fresh.Init(config, 400);
         return SaveLoadSave(live, fresh);
       }},
      {"LazyRepairQueue",
       [] {
         LazyRepairConfig config;
         config.enabled = true;
         config.bandwidth_bytes_per_s = 200.0;
         LazyRepairQueue live;
         live.Configure(config, 0.0);
         for (int i = 0; i < 6; ++i) {
           LazyRepairEntry entry;
           entry.platter = static_cast<uint64_t>(i);
           entry.remaining_redundancy = i % 3;
           entry.tier = static_cast<RepairTier>(i % 4);
           entry.bytes = 300 + 10u * static_cast<uint64_t>(i);
           entry.admitted_at = 0.5 * i;
           live.Admit(entry);
         }
         live.Drain(2.0, [](const LazyRepairEntry&) {});
         LazyRepairQueue fresh;
         fresh.Configure(config, 0.0);
         return SaveLoadSave(live, fresh);
       }},
      {"DurabilityState",
       [] {
         DurabilityConfig config;
         config.num_sets = 8;
         config.n = 5;
         config.k = 4;
         config.fail_rate_per_platter_year = 0.3;
         config.lazy = true;
         const DurabilityModel model(config);
         DurabilityState live = model.MakeInitialState(3);
         for (int i = 0; i < 40; ++i) {
           const auto outcome = model.Step(live);
           if (outcome == DurabilityModel::StepOutcome::kLoss ||
               outcome == DurabilityModel::StepOutcome::kHorizon) {
             break;
           }
         }
         DurabilityState fresh = model.MakeInitialState(0);
         return SaveLoadSave(live, fresh);
       }},
      {"FederationResult",
       [] {
         FederationConfig config;
         config.library.library.num_shuttles = 4;
         config.library.num_info_platters = 200;
         config.num_libraries = 2;
         config.replication = 2;
         config.tenants = 16;
         config.profile = TraceProfile::SteadyPoisson(0.1, 64.0 * kMiB, 1);
         config.profile.window_s = 1800.0;
         config.profile.warmup_s = 300.0;
         config.profile.cooldown_s = 300.0;
         config.library.measure_start = config.profile.warmup_s;
         config.library.measure_end =
             config.profile.warmup_s + config.profile.window_s;
         config.geo_read_fraction = 0.3;
         config.threads = 1;
         config.seed = 3;
         FederationResult fresh;
         return SaveLoadSave(SimulateFederation(config), fresh);
       }},
  };
}

class CheckpointRoundTrip : public testing::TestWithParam<RoundTripCase> {};

TEST_P(CheckpointRoundTrip, SaveLoadSaveIsByteIdentical) {
  const auto [first, second] = GetParam().run();
  ASSERT_GT(first.size(), 32u) << "instance too trivial to exercise Visit";
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(
    ConvertedTypes, CheckpointRoundTrip, testing::ValuesIn(RoundTripCases()),
    [](const testing::TestParamInfo<RoundTripCase>& param) {
      return std::string(param.param.type);
    });

// ---------------------------------------------------------------------------
// A corrupt snapshot is rejected at load with a runtime_error, before any of
// it runs. Offsets follow the wire order of the twin's Visit (library_sim.cc):
// a 60-byte config fingerprint, the 32-byte engine clock, the pending-event
// count, then 33-byte library descriptors (at, source, kind, a, b, c) or
// 14-byte fault events (at, source, component, is_repair).
// ---------------------------------------------------------------------------

// Event kinds by position in library_sim.cc's EventKind.
bool ShuttleKind(uint32_t kind) {
  return kind <= 4 || (kind >= 11 && kind <= 14);
}
bool DriveKind(uint32_t kind) { return kind >= 5 && kind <= 9; }
constexpr uint32_t kFederatedArrivalKind = 25;
constexpr uint32_t kFederatedWriteKind = 26;

struct SavedEventAt {
  size_t offset = 0;
  uint8_t source = 0;
  uint32_t kind = 0;
};

template <class T>
T Peek(const Bytes& bytes, size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

template <class T>
Bytes Poke(Bytes bytes, size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  return bytes;
}

std::vector<SavedEventAt> PendingEvents(const Bytes& bytes, size_t* end) {
  size_t pos = 60 + 32;
  const auto count = Peek<uint64_t>(bytes, pos);
  pos += 8;
  std::vector<SavedEventAt> events;
  for (uint64_t i = 0; i < count; ++i) {
    SavedEventAt e{pos, bytes[pos + 8], 0};
    if (e.source == 0) {
      e.kind = Peek<uint32_t>(bytes, pos + 9);
      pos += 33;
    } else {
      pos += 14;
    }
    events.push_back(e);
  }
  *end = pos;
  return events;
}

// A storm snapshot whose queue holds a shuttle job, a drive event and a
// fault event, so every payload check has a target.
struct CorruptibleSnapshot {
  LibrarySimConfig config;
  ReadTrace trace;
  Bytes bytes;
  std::vector<SavedEventAt> events;
  size_t events_end = 0;
  const SavedEventAt* Find(bool (*pred)(const SavedEventAt&)) const {
    for (const SavedEventAt& e : events) {
      if (pred(e)) {
        return &e;
      }
    }
    return nullptr;
  }
  bool Rejects(const Bytes& corrupt) const {
    try {
      ResumeLibrary(config, trace, LibraryCheckpoint{corrupt});
    } catch (const std::runtime_error&) {
      return true;
    }
    return false;
  }
};

bool IsShuttleEvent(const SavedEventAt& e) {
  return e.source == 0 && ShuttleKind(e.kind);
}
bool IsDriveEvent(const SavedEventAt& e) {
  return e.source == 0 && DriveKind(e.kind);
}
bool IsFaultEvent(const SavedEventAt& e) { return e.source == 1; }

const CorruptibleSnapshot& StormSnapshot() {
  static const CorruptibleSnapshot snapshot = [] {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      for (double at : {2000.0, 500.0, 6000.0}) {
        CorruptibleSnapshot s;
        s.config = StormConfig(seed);
        s.trace = StormTrace(s.config);
        LibraryCheckpoint checkpoint;
        SimulateLibraryWithCheckpoint(s.config, s.trace, at, &checkpoint);
        s.bytes = checkpoint.bytes;
        s.events = PendingEvents(s.bytes, &s.events_end);
        if (s.Find(IsShuttleEvent) && s.Find(IsDriveEvent) &&
            s.Find(IsFaultEvent)) {
          return s;
        }
      }
    }
    return CorruptibleSnapshot{};
  }();
  return snapshot;
}

TEST(Checkpoint, CorruptEventPayloadIsRejected) {
  const CorruptibleSnapshot& s = StormSnapshot();
  ASSERT_FALSE(s.bytes.empty()) << "no storm snapshot with every event class";
  EXPECT_EQ(ResultBytes(ResumeLibrary(s.config, s.trace, {s.bytes})),
            ResultBytes(SimulateLibrary(s.config, s.trace)));

  const SavedEventAt& shuttle = *s.Find(IsShuttleEvent);
  const SavedEventAt& drive = *s.Find(IsDriveEvent);
  for (int32_t bad : {-1, s.config.library.num_shuttles, 1 << 20}) {
    EXPECT_TRUE(s.Rejects(Poke(s.bytes, shuttle.offset + 13, bad)))
        << "shuttle " << bad;
  }
  for (int32_t bad : {-1, 1 << 20}) {
    EXPECT_TRUE(s.Rejects(Poke(s.bytes, drive.offset + 13, bad)))
        << "drive " << bad;
  }
  // Drive events other than SwitchBack/VerifyDone carry a platter in b.
  for (const SavedEventAt& e : s.events) {
    if (e.source == 0 && (e.kind <= 3 || (e.kind >= 5 && e.kind <= 7))) {
      EXPECT_TRUE(s.Rejects(Poke(s.bytes, e.offset + 17, uint64_t{1} << 40)))
          << "platter payload of kind " << e.kind;
      break;
    }
  }
}

TEST(Checkpoint, CorruptEventKindIsRejected) {
  const CorruptibleSnapshot& s = StormSnapshot();
  ASSERT_FALSE(s.bytes.empty()) << "no storm snapshot with every event class";
  const SavedEventAt& event = *s.Find(IsShuttleEvent);
  for (uint32_t bad : {kFederatedArrivalKind, kFederatedWriteKind, 27u, 999u}) {
    EXPECT_TRUE(s.Rejects(Poke(s.bytes, event.offset + 9, bad)))
        << "kind " << bad;
  }
  EXPECT_TRUE(s.Rejects(Poke(s.bytes, event.offset + 8, uint8_t{2})))
      << "unknown event source";
}

TEST(Checkpoint, CorruptFaultComponentIsRejected) {
  const CorruptibleSnapshot& s = StormSnapshot();
  ASSERT_FALSE(s.bytes.empty()) << "no storm snapshot with every event class";
  const SavedEventAt& fault = *s.Find(IsFaultEvent);
  for (int32_t bad : {-1, 1 << 20}) {
    EXPECT_TRUE(s.Rejects(Poke(s.bytes, fault.offset + 9, bad)))
        << "component " << bad;
  }
  // The injector itself refuses an out-of-range re-arm.
  Simulator sim;
  NullHost host;
  FaultInjector injector(sim, host, MixedFaults(), Rng(1), 4, 3, 2);
  EXPECT_THROW(injector.RearmFailureAt(injector.num_components(), 10.0),
               std::runtime_error);
  EXPECT_THROW(injector.RearmRepairAt(-1, 10.0), std::runtime_error);
}

// Enum tags past their last value and config-sized containers of the wrong
// length are rejected by the archive helpers, wherever they sit.
TEST(Checkpoint, OutOfRangeBytesAreRejected) {
  // Enum tags inside the twin snapshot: platter 0's state and shuttle 0's job
  // follow the events, the twin's RNG (41 bytes) and the platter count.
  const CorruptibleSnapshot& s = StormSnapshot();
  ASSERT_FALSE(s.bytes.empty()) << "no storm snapshot with every event class";
  const size_t platters = s.events_end + 41 + 8;
  const auto num_platters = Peek<uint64_t>(s.bytes, platters - 8);
  EXPECT_TRUE(s.Rejects(Poke(s.bytes, platters + 49, uint8_t{4})))
      << "platter state";
  EXPECT_TRUE(s.Rejects(Poke(s.bytes, platters + 50 * num_platters + 67,
                             uint8_t{10})))
      << "shuttle job";

  // Enum tags of components: a lazy-repair tier and a metric kind.
  LazyRepairQueue lazy;
  LazyRepairEntry entry;
  entry.tier = RepairTier::kPlatterSet;
  lazy.Admit(entry);
  Bytes bytes = Poke(SaveBytes(lazy), 8 + 8 + 4, uint8_t{4});
  StateReader lazy_reader(bytes);
  EXPECT_THROW(lazy_reader(lazy), std::runtime_error);

  MetricsRegistry metrics;
  metrics.GetCounter("c");
  bytes = Poke(SaveBytes(metrics), 8 + 8 + 1 + 8, uint8_t{3});
  StateReader metrics_reader(bytes);
  EXPECT_THROW(metrics_reader(metrics), std::runtime_error);

  // Containers sized by config: a shorter scheduler slot table, a shrunken
  // scrub health table, and shard / lane / partition counts that differ.
  RequestScheduler small_sched;
  small_sched.ReservePlatters(10);
  RequestScheduler big_sched;
  big_sched.ReservePlatters(20);
  bytes = SaveBytes(small_sched);
  StateReader sched_reader(bytes);
  EXPECT_THROW(sched_reader(big_sched), std::runtime_error);

  ScrubScheduler small_scrub;
  small_scrub.Init(ScrubConfig{}, 10);
  ScrubScheduler big_scrub;
  big_scrub.Init(ScrubConfig{}, 20);
  bytes = SaveBytes(small_scrub);
  StateReader scrub_reader(bytes);
  EXPECT_THROW(scrub_reader(big_scrub), std::runtime_error);

  ShardedScheduler three;
  three.Init(3, 10);
  ShardedScheduler four;
  four.Init(4, 10);
  bytes = SaveBytes(three);
  StateReader shard_reader(bytes);
  EXPECT_THROW(shard_reader(four), std::runtime_error);

  RailTraffic narrow(4, 6);
  RailTraffic wide(4, 7);
  bytes = SaveBytes(narrow);
  StateReader rail_reader(bytes);
  EXPECT_THROW(rail_reader(wide), std::runtime_error);

  const Panel panel(StormConfig(1).library);
  Partitioner six(panel, 6);
  Partitioner eight(panel, 8);
  bytes = SaveBytes(six);
  StateReader partition_reader(bytes);
  EXPECT_THROW(partition_reader(eight), std::runtime_error);
}

}  // namespace
}  // namespace silica
