// Federation determinism and conservation: byte-identity across
// --federation-threads values over many seeds, single-library federation
// equivalence against the bare twin, blackout/evacuation conservation, the
// placement/routing primitives, and shared-ThreadPool reuse across epochs.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/state_io.h"
#include "common/thread_pool.h"
#include "core/library_sim.h"
#include "core/sweep.h"
#include "federation/federation.h"
#include "federation/placement.h"
#include "workload/trace_gen.h"

namespace silica {
namespace {

// Small-but-live federation: a couple of minutes of wall time across the whole
// file matters, so the twins are tiny and the window short — yet every run
// still exchanges forwards, responses, and (in the scenario tests) drops.
FederationConfig SmallConfig(uint64_t seed, int libraries, int threads) {
  FederationConfig fc;
  fc.library.library.num_shuttles = 4;
  fc.library.num_info_platters = 200;
  fc.library.seed = 17;
  fc.num_libraries = libraries;
  fc.replication = libraries >= 2 ? 2 : 1;
  fc.tenants = 16;
  fc.profile = TraceProfile::SteadyPoisson(0.1, 64.0 * 1024 * 1024, 1);
  fc.profile.window_s = 1800.0;
  fc.profile.warmup_s = 300.0;
  fc.profile.cooldown_s = 300.0;
  fc.library.measure_start = fc.profile.warmup_s;
  fc.library.measure_end = fc.profile.warmup_s + fc.profile.window_s;
  fc.geo_read_fraction = 0.3;
  fc.threads = threads;
  fc.seed = seed;
  return fc;
}

std::vector<uint8_t> ResultBytes(const FederationResult& result) {
  StateWriter w;
  SaveFederationResult(w, result);
  return w.bytes();
}

void ExpectConserves(const FederationResult& r, const std::string& label) {
  EXPECT_EQ(r.messages_sent,
            r.messages_delivered + r.messages_dropped + r.messages_in_flight)
      << label;
  EXPECT_EQ(r.geo_routed + r.geo_unroutable, r.geo_reads) << label;
  for (size_t i = 0; i < r.libraries.size(); ++i) {
    const LibrarySimResult& lib = r.libraries[i];
    EXPECT_EQ(lib.requests_completed + lib.requests_failed, lib.requests_total)
        << label << " library " << i;
    EXPECT_EQ(lib.federation.injected_resolved + lib.federation.injected_failed,
              lib.federation.injected_arrivals)
        << label << " library " << i;
  }
}

TEST(Federation, ByteIdenticalAcrossThreadCountsFiftySeeds) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const auto baseline = ResultBytes(SimulateFederation(SmallConfig(seed, 3, 1)));
    for (int threads : {2, 8}) {
      const auto bytes =
          ResultBytes(SimulateFederation(SmallConfig(seed, 3, threads)));
      ASSERT_EQ(bytes, baseline) << "seed " << seed << ", " << threads
                                 << " threads";
    }
  }
}

TEST(Federation, ByteIdenticalWithExplicitWritesAcrossThreadCounts) {
  // The explicit write pipeline's verify preemptions cancel queued events, so
  // every twin's bounded runs end with tombstones in its queue.
  const auto config = [](uint64_t seed, int threads) {
    FederationConfig fc = SmallConfig(seed, 3, threads);
    fc.library.write_platters_per_hour = 4.0;
    fc.library.write_until = fc.library.measure_end;
    fc.replication_writes_per_hour = 4.0;
    fc.replication_until_s = fc.library.measure_end;
    return fc;
  };
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const FederationResult baseline = SimulateFederation(config(seed, 1));
    ExpectConserves(baseline, "explicit writes");
    EXPECT_GT(baseline.replication_writes, 0u) << "seed " << seed;
    const auto baseline_bytes = ResultBytes(baseline);
    for (int threads : {2, 8}) {
      const auto bytes = ResultBytes(SimulateFederation(config(seed, threads)));
      ASSERT_EQ(bytes, baseline_bytes) << "seed " << seed << ", " << threads
                                       << " threads";
    }
  }
}

TEST(Federation, SingleLibraryMatchesBareSimulateLibrary) {
  // With one library and no geo traffic the epoch loop is pure slicing: the
  // same twin, the same trace, the same seed, run in lookahead-sized chunks.
  FederationConfig fc = SmallConfig(7, 1, 1);
  fc.geo_read_fraction = 0.0;
  const FederationWorkload fw = BuildFederationWorkload(fc);
  ASSERT_EQ(fw.workload.local.size(), 1u);
  ASSERT_EQ(fw.workload.library_seeds[0], fc.seed);

  LibrarySimConfig bare = fc.library;
  bare.seed = fw.workload.library_seeds[0];
  const LibrarySimResult reference =
      SimulateLibrary(bare, fw.workload.local[0]);

  const FederationResult fed = SimulateFederation(fc);
  ASSERT_EQ(fed.libraries.size(), 1u);
  EXPECT_EQ(fed.messages_sent, 0u);
  EXPECT_GT(fed.epochs, 1u);  // genuinely sliced, not a single Run

  StateWriter fed_bytes;
  SaveLibrarySimResult(fed_bytes, fed.libraries[0]);
  StateWriter ref_bytes;
  SaveLibrarySimResult(ref_bytes, reference);
  EXPECT_EQ(fed_bytes.bytes(), ref_bytes.bytes());
}

TEST(Federation, GeoReadsCompleteAndConserve) {
  const FederationResult r = SimulateFederation(SmallConfig(3, 4, 2));
  ExpectConserves(r, "geo");
  EXPECT_GT(r.geo_reads, 0u);
  EXPECT_EQ(r.geo_routed, r.geo_reads);  // no blackout: everything routes
  EXPECT_EQ(r.geo_completed + r.geo_failed, r.geo_routed);
  EXPECT_EQ(r.messages_in_flight, 0u);   // termination drains the network
  EXPECT_GT(r.messages_delivered, 0u);
  EXPECT_EQ(r.messages_dropped, 0u);
}

TEST(Federation, BlackoutAndEvacuationConserve) {
  FederationConfig fc = SmallConfig(11, 4, 2);
  fc.blackout_library = 1;
  fc.blackout_start_s = 600.0;
  fc.blackout_duration_s = 900.0;
  fc.evacuate_library = 1;
  fc.evacuate_at_s = 600.0;
  fc.replication_writes_per_hour = 4.0;
  fc.replication_until_s = 1800.0;
  const FederationResult r = SimulateFederation(fc);
  ExpectConserves(r, "blackout");
  EXPECT_GT(r.messages_dropped, 0u);  // the blackout actually bit
  EXPECT_GT(r.replication_writes, 0u);

  // The scenario is deterministic across thread counts too.
  FederationConfig fc8 = fc;
  fc8.threads = 8;
  EXPECT_EQ(ResultBytes(SimulateFederation(fc8)), ResultBytes(r));
}

TEST(Federation, DemandSkewScalesPerSiteLoad) {
  FederationConfig fc = SmallConfig(5, 4, 2);
  fc.demand_skew_sigma = 1.0;
  fc.profile.mean_rate_per_s = 0.3;
  const FederationResult r = SimulateFederation(fc);
  ExpectConserves(r, "skew");
  uint64_t lo = UINT64_MAX, hi = 0;
  for (const LibrarySimResult& lib : r.libraries) {
    lo = std::min(lo, lib.requests_total);
    hi = std::max(hi, lib.requests_total);
  }
  EXPECT_GT(hi, lo + lo / 4) << "sigma=1 should spread per-site demand";
}

TEST(Federation, RejectsMalformedConfigs) {
  EXPECT_THROW(
      { (void)SimulateFederation([] {
          FederationConfig fc = SmallConfig(1, 0, 1);
          return fc;
        }()); },
      std::invalid_argument);
  FederationConfig bad_threads = SmallConfig(1, 2, 0);
  EXPECT_THROW((void)SimulateFederation(bad_threads), std::invalid_argument);
  FederationConfig bad_geo = SmallConfig(1, 2, 1);
  bad_geo.geo_read_fraction = 1.5;
  EXPECT_THROW((void)SimulateFederation(bad_geo), std::invalid_argument);
  FederationConfig bad_blackout = SmallConfig(1, 2, 1);
  bad_blackout.blackout_library = 5;
  EXPECT_THROW((void)SimulateFederation(bad_blackout), std::invalid_argument);
}

// ---------- placement / routing ----------

TEST(Placement, ReplicaSetsIncludeHomeAndRouteToLeastLoaded) {
  PlacementConfig pc;
  pc.num_libraries = 4;
  pc.replication = 2;
  pc.tenants = 32;
  pc.seed = 9;
  const Placement placement(pc);
  for (int t = 0; t < pc.tenants; ++t) {
    const auto& replicas = placement.replicas_of(t);
    ASSERT_EQ(replicas.size(), 2u) << "tenant " << t;
    EXPECT_TRUE(std::is_sorted(replicas.begin(), replicas.end()));
    EXPECT_NE(std::find(replicas.begin(), replicas.end(), placement.home_of(t)),
              replicas.end())
        << "home must be a replica";
  }
  // Routing picks the least-loaded live replica; ties go to the smallest id.
  const auto& replicas = placement.replicas_of(0);
  std::vector<uint64_t> outstanding(4, 0);
  std::vector<char> down(4, 0);
  EXPECT_EQ(placement.RouteRead(0, outstanding, down), replicas[0]);
  outstanding[static_cast<size_t>(replicas[0])] = 10;
  EXPECT_EQ(placement.RouteRead(0, outstanding, down), replicas[1]);
  down[static_cast<size_t>(replicas[1])] = 1;
  EXPECT_EQ(placement.RouteRead(0, outstanding, down), replicas[0]);
  down[static_cast<size_t>(replicas[0])] = 1;
  EXPECT_EQ(placement.RouteRead(0, outstanding, down), -1);
}

TEST(Placement, EvacuateRehomesEveryAffectedTenant) {
  PlacementConfig pc;
  pc.num_libraries = 3;
  pc.replication = 2;
  pc.tenants = 30;
  Placement placement(pc);
  placement.Evacuate(1);
  for (int t = 0; t < pc.tenants; ++t) {
    EXPECT_NE(placement.home_of(t), 1) << "tenant " << t;
  }
}

TEST(Placement, DemandMultipliersMeanNormalized) {
  PlacementConfig pc;
  pc.num_libraries = 8;
  pc.demand_skew_sigma = 0.8;
  const Placement placement(pc);
  double sum = 0.0;
  for (int i = 0; i < pc.num_libraries; ++i) {
    sum += placement.demand_multiplier(i);
  }
  EXPECT_NEAR(sum / pc.num_libraries, 1.0, 1e-9);
}

// ---------- twin injection guards ----------

TEST(LibraryTwin, RejectsInjectionOutsideFederatedIdSpace) {
  FederationConfig fc = SmallConfig(1, 1, 1);
  const FederationWorkload fw = BuildFederationWorkload(fc);
  LibrarySimConfig config = fc.library;
  config.seed = fw.workload.library_seeds[0];
  LibraryTwin twin(config, fw.workload.local[0]);
  twin.Prologue();
  ReadRequest bad;
  bad.id = 7;  // trace-id space, not the federated range
  bad.bytes = 1;
  EXPECT_THROW(twin.InjectArrival(bad, 0.0), std::invalid_argument);
  ReadRequest good;
  good.id = kFederatedIdBase + 1;
  good.bytes = 1;
  good.platter = 5000;  // out of range
  EXPECT_THROW(twin.InjectArrival(good, 0.0), std::invalid_argument);
}

// ---------- shared thread pool reuse (federation epochs, sweeps) ----------

TEST(ThreadPoolReuse, SharedPoolPersistsWorkersAcrossBatches) {
  ThreadPool& pool = ThreadPool::Shared(2);
  ThreadPool& again = ThreadPool::Shared(2);
  EXPECT_EQ(&pool, &again) << "Shared must return one process-wide instance";
  EXPECT_GE(pool.size(), 2u);

  const uint64_t spawned_before = pool.spawned();
  const uint64_t gen_before = pool.generation();
  // Many independent batches: each bumps the generation, none respawns.
  for (int batch = 0; batch < 5; ++batch) {
    pool.BeginGeneration();
    std::vector<uint64_t> out(64, 0);
    ParallelFor(&pool, out.size(), [&](size_t i) { out[i] = i + 1; });
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], i + 1);
    }
  }
  EXPECT_EQ(pool.spawned(), spawned_before)
      << "batches must reuse workers, not respawn them";
  EXPECT_EQ(pool.generation(), gen_before + 5);

  // Growing never shrinks and never tears existing workers down.
  ThreadPool& grown = ThreadPool::Shared(3);
  EXPECT_EQ(&grown, &pool);
  EXPECT_GE(grown.size(), 3u);
  EXPECT_GE(grown.spawned(), spawned_before);
  ThreadPool& small = ThreadPool::Shared(1);
  EXPECT_GE(small.size(), 3u) << "Shared(min) must never shrink the pool";
}

TEST(ThreadPoolReuse, SweepsShareThePoolAcrossCalls) {
  ThreadPool& pool = ThreadPool::Shared(2);
  (void)RunSweep<int>(8, 2, [](size_t i) { return static_cast<int>(i); });
  const uint64_t spawned_after_first = pool.spawned();
  const auto second =
      RunSweep<int>(8, 2, [](size_t i) { return static_cast<int>(i) * 2; });
  EXPECT_EQ(pool.spawned(), spawned_after_first)
      << "the second sweep must not spawn fresh workers";
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i], static_cast<int>(i) * 2);
  }
}

}  // namespace
}  // namespace silica
