// Data-integrity robustness tests: the media-aging model, the four-tier
// repair-escalation ladder, and the library twin's background scrubber.
//
// The invariants under test mirror the control plane's request conservation:
//   * aging is deterministic per (seed, platter) and call-order independent;
//   * every detected sector failure lands in exactly one ledger bucket
//     (detected == sum(repaired by tier) + unrecoverable);
//   * with scrub + aging disabled the twin's scrub outcome is all-zero;
//   * the escalation ladder attributes repairs to the right tier.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/state_io.h"
#include "common/units.h"
#include "core/library_sim.h"
#include "core/platter_repair.h"
#include "core/silica_service.h"
#include "ecc/lazy_repair.h"
#include "faults/fault_injector.h"
#include "faults/media_aging.h"
#include "sim/durability_model.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace silica {
namespace {

// ---------------------------------------------------------------------------
// MediaAger: deterministic physical decay of a written platter.
// ---------------------------------------------------------------------------

std::vector<FileData> SomeFiles(Rng& rng, int count, size_t bytes_each) {
  std::vector<FileData> files;
  for (int i = 0; i < count; ++i) {
    FileData f;
    f.file_id = static_cast<uint64_t>(i + 1);
    f.name = "file-" + std::to_string(i);
    f.bytes.resize(bytes_each);
    for (auto& b : f.bytes) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    files.push_back(std::move(f));
  }
  return files;
}

// Full voxel image of a platter, for exact damage-pattern comparison.
std::vector<std::vector<uint16_t>> VoxelImage(const GlassPlatter& platter) {
  const auto& g = platter.geometry();
  std::vector<std::vector<uint16_t>> image;
  for (int t = 0; t < g.tracks_per_platter(); ++t) {
    for (int s = 0; s < g.sectors_per_track(); ++s) {
      const auto span = platter.SectorSymbols({t, s});
      image.emplace_back(span.begin(), span.end());
    }
  }
  return image;
}

class MediaAging : public ::testing::Test {
 protected:
  static const DataPlane& Plane() {
    static const DataPlane plane{DataPlaneConfig{}};
    return plane;
  }
  static WrittenPlatter Written(uint64_t platter_id, uint64_t seed) {
    Rng rng(seed);
    const auto files = SomeFiles(rng, 3, 4000);
    return PlatterWriter(Plane()).WritePlatter(platter_id, files, rng);
  }
};

TEST_F(MediaAging, SameSeedSamePlatterSameDamage) {
  const auto written = Written(7, 11);
  MediaAgingParams params;
  params.lse_events_per_year = 6.0;
  const MediaAger ager(params, /*seed=*/5);

  GlassPlatter a = written.platter;
  GlassPlatter b = written.platter;
  const uint64_t struck_a = ager.Age(a, 4.0);
  const uint64_t struck_b = ager.Age(b, 4.0);

  EXPECT_GT(struck_a, 0u) << "4 years at 6 events/year must strike something";
  EXPECT_EQ(struck_a, struck_b);
  EXPECT_DOUBLE_EQ(a.age_stress(), b.age_stress());
  EXPECT_GT(a.age_stress(), 0.0);
  EXPECT_EQ(VoxelImage(a), VoxelImage(b));
}

TEST_F(MediaAging, DamageIsCallOrderIndependent) {
  // Aging platter 7 must draw from a stream tagged by its id alone: aging
  // another platter first (or not at all) cannot change platter 7's damage.
  const auto written7 = Written(7, 11);
  const auto written9 = Written(9, 12);
  MediaAgingParams params;
  params.lse_events_per_year = 6.0;
  const MediaAger ager(params, 5);

  GlassPlatter alone = written7.platter;
  ager.Age(alone, 3.0);

  GlassPlatter other = written9.platter;
  GlassPlatter after = written7.platter;
  ager.Age(other, 3.0);
  ager.Age(after, 3.0);

  EXPECT_EQ(VoxelImage(alone), VoxelImage(after));
}

TEST_F(MediaAging, DifferentSeedsDiverge) {
  const auto written = Written(3, 21);
  MediaAgingParams params;
  params.lse_events_per_year = 8.0;
  GlassPlatter a = written.platter;
  GlassPlatter b = written.platter;
  MediaAger(params, 1).Age(a, 5.0);
  MediaAger(params, 2).Age(b, 5.0);
  EXPECT_NE(VoxelImage(a), VoxelImage(b));
}

TEST_F(MediaAging, VerifierDetectsErodedSectorsAndConserves) {
  const auto written = Written(4, 31);
  GlassPlatter aged = written.platter;
  // Fully blank two information sectors: guaranteed LDPC erasures.
  for (int s = 0; s < 2; ++s) {
    const auto symbols = aged.SectorSymbols({0, s});
    std::vector<size_t> all(symbols.size());
    std::iota(all.begin(), all.end(), size_t{0});
    aged.Erode({0, s}, all);
  }
  Rng rng(77);
  const auto report = PlatterVerifier(Plane()).Verify(aged, rng);
  EXPECT_GE(report.sector_erasures, 2u);
  EXPECT_TRUE(report.Conserves());
}

// ---------------------------------------------------------------------------
// FaultInjector media class: aging events as a renewal process per platter.
// ---------------------------------------------------------------------------

class RecordingAgingHost : public FaultHost {
 public:
  explicit RecordingAgingHost(Simulator& sim) : sim_(sim) {}
  void OnShuttleDown(int) override {}
  void OnShuttleRepaired(int) override {}
  void OnDriveDown(int) override {}
  void OnDriveRepaired(int) override {}
  void OnRackDown(int) override {}
  void OnRackRepaired(int) override {}
  void OnPlatterAged(int platter) override {
    events.emplace_back(sim_.Now(), platter);
  }
  std::vector<std::pair<double, int>> events;

 private:
  Simulator& sim_;
};

TEST_F(MediaAging, InjectorRenewsPerPlatterInsideTheWindow) {
  auto run = [](uint64_t seed, bool with_shuttle_faults) {
    Simulator sim;
    RecordingAgingHost host(sim);
    FaultConfig config;
    config.aging = MediaAgingConfig::Exponential(80.0);
    if (with_shuttle_faults) {
      config.shuttle = FaultProcess::Exponential(200.0, 20.0);
    }
    config.inject_until_s = 2000.0;
    FaultInjector injector(sim, host, config, Rng(seed), /*num_shuttles=*/4,
                           /*num_drives=*/0, /*num_racks=*/0,
                           /*num_platters=*/5);
    injector.Start();
    sim.Run();
    EXPECT_EQ(injector.media_stats().failures, host.events.size());
    EXPECT_EQ(injector.media_stats().repairs, 0u)
        << "media damage has no repair law: glass does not heal";
    return host.events;
  };

  const auto events = run(13, false);
  ASSERT_GT(events.size(), 20u) << "5 platters x 2000 s / 80 s mean gap";
  for (const auto& [time, platter] : events) {
    EXPECT_LE(time, 2000.0);
    EXPECT_GE(platter, 0);
    EXPECT_LT(platter, 5);
  }
  EXPECT_EQ(events, run(13, false)) << "schedule must be seed-deterministic";
  EXPECT_EQ(events, run(13, true))
      << "other fault classes must not perturb the aging streams";
  EXPECT_NE(events, run(14, false));
}

// ---------------------------------------------------------------------------
// PlatterRepairer: each escalation tier, forced in isolation.
// ---------------------------------------------------------------------------

class PlatterRepair : public ::testing::Test {
 protected:
  static const DataPlane& Plane() {
    static const DataPlane plane{DataPlaneConfig{}};
    return plane;
  }

  // Blanks every voxel of the sector: an unconditional erasure no re-read can
  // clear, so repair must escalate past tier 0.
  static void Blank(GlassPlatter& platter, int track, int sector) {
    const auto symbols = platter.SectorSymbols({track, sector});
    std::vector<size_t> all(symbols.size());
    std::iota(all.begin(), all.end(), size_t{0});
    platter.Erode({track, sector}, all);
  }

  static PlatterRepairOutcome RepairAlone(const GlassPlatter& damaged,
                                          uint64_t seed) {
    Rng rng(seed);
    return PlatterRepairer(Plane()).Repair(damaged, nullptr, {}, {}, {}, {}, 0,
                                           rng);
  }
};

TEST_F(PlatterRepair, WithinTrackNcClearsLossesUpToTrackRedundancy) {
  Rng rng(41);
  const auto written =
      PlatterWriter(Plane()).WritePlatter(1, SomeFiles(rng, 2, 6000), rng);
  GlassPlatter damaged = written.platter;
  const auto& g = Plane().geometry();
  const int track_redundancy =
      g.sectors_per_track() - g.info_sectors_per_track;
  ASSERT_GE(track_redundancy, 2);
  Blank(damaged, 0, 0);
  Blank(damaged, 0, 1);

  const auto outcome = RepairAlone(damaged, 42);
  EXPECT_EQ(outcome.ledger.repaired[static_cast<int>(RepairTier::kTrackNc)], 2u);
  EXPECT_EQ(outcome.ledger.unrecoverable, 0u);
  EXPECT_TRUE(outcome.ledger.Conserves());
  EXPECT_TRUE(outcome.data_intact);
  ASSERT_TRUE(outcome.rewritten.has_value());
  EXPECT_EQ(outcome.rewritten->platter.platter_id(), 1u);
}

TEST_F(PlatterRepair, LargeGroupAbsorbsLossesBeyondTrackRedundancy) {
  Rng rng(43);
  const auto written =
      PlatterWriter(Plane()).WritePlatter(2, SomeFiles(rng, 2, 6000), rng);
  GlassPlatter damaged = written.platter;
  const auto& g = Plane().geometry();
  const int track_redundancy =
      g.sectors_per_track() - g.info_sectors_per_track;
  // One sector more than within-track NC can absorb, spread over distinct
  // sector positions so the large group sees one missing shard per position.
  const int losses = track_redundancy + 3;
  for (int s = 0; s < losses; ++s) {
    Blank(damaged, 0, s);
  }

  const auto outcome = RepairAlone(damaged, 44);
  EXPECT_EQ(outcome.ledger.repaired[static_cast<int>(RepairTier::kLargeGroup)],
            static_cast<uint64_t>(losses));
  EXPECT_EQ(outcome.ledger.repaired[static_cast<int>(RepairTier::kTrackNc)], 0u);
  EXPECT_EQ(outcome.ledger.unrecoverable, 0u);
  EXPECT_TRUE(outcome.ledger.Conserves());
  EXPECT_TRUE(outcome.data_intact);
}

TEST_F(PlatterRepair, PlatterSetRebuildsTracksNoOnPlatterTierCanSave) {
  // Two whole tracks of the same large group blanked: within-track NC has
  // nothing to work with, and the group's single redundancy track cannot cover
  // two missing shards per position — only the platter set can.
  Rng rng(45);
  PlatterWriter writer(Plane());
  const PlatterSetConfig set{4, 2};
  PlatterSetCodec set_codec(Plane(), set);
  std::vector<WrittenPlatter> info;
  for (int p = 0; p < set.info; ++p) {
    info.push_back(writer.WritePlatter(static_cast<uint64_t>(p),
                                       SomeFiles(rng, 2, 6000), rng));
  }
  std::vector<const WrittenPlatter*> info_ptrs;
  for (const auto& w : info) {
    info_ptrs.push_back(&w);
  }
  const auto redundancy = set_codec.EncodeRedundancyPlatters(info_ptrs, 100, rng);
  ASSERT_EQ(redundancy.size(), 2u);

  GlassPlatter damaged = info[2].platter;
  const auto& g = Plane().geometry();
  for (int track : {0, 1}) {
    for (int s = 0; s < g.sectors_per_track(); ++s) {
      Blank(damaged, track, s);
    }
  }

  std::vector<const GlassPlatter*> avail_info;
  std::vector<size_t> avail_info_idx;
  for (size_t p = 0; p < info.size(); ++p) {
    if (p != 2) {
      avail_info.push_back(&info[p].platter);
      avail_info_idx.push_back(p);
    }
  }
  const std::vector<const GlassPlatter*> avail_red = {&redundancy[0].platter,
                                                      &redundancy[1].platter};
  const std::vector<size_t> avail_red_idx = {0, 1};

  const uint64_t lost_info_sectors =
      2u * static_cast<uint64_t>(g.info_sectors_per_track);

  // Without peers the data is gone — the ledger must say so, not fabricate.
  const auto alone = RepairAlone(damaged, 46);
  EXPECT_EQ(alone.ledger.unrecoverable, lost_info_sectors);
  EXPECT_FALSE(alone.data_intact);
  EXPECT_FALSE(alone.rewritten.has_value());
  EXPECT_TRUE(alone.ledger.Conserves());
  EXPECT_EQ(alone.ledger.bytes_lost,
            lost_info_sectors * Plane().sector_payload_bytes());

  // With the set readable, every sector comes back at tier 3.
  Rng repair_rng(47);
  const auto outcome = PlatterRepairer(Plane()).Repair(
      damaged, &set_codec, avail_info, avail_info_idx, avail_red, avail_red_idx,
      /*index_in_set=*/2, repair_rng);
  EXPECT_EQ(outcome.ledger.repaired[static_cast<int>(RepairTier::kPlatterSet)],
            lost_info_sectors);
  EXPECT_EQ(outcome.ledger.unrecoverable, 0u);
  EXPECT_TRUE(outcome.ledger.Conserves());
  EXPECT_TRUE(outcome.data_intact);
  ASSERT_TRUE(outcome.rewritten.has_value());

  // The rewritten platter reads back clean.
  Rng read_rng(48);
  const auto report =
      PlatterVerifier(Plane()).Verify(outcome.rewritten->platter, read_rng);
  EXPECT_TRUE(report.durable);
}

TEST_F(PlatterRepair, ServiceScrubRepairsAgedPlatterEndToEnd) {
  ServiceConfig config;
  config.platter_set = PlatterSetConfig{4, 2};
  config.seed = 99;
  config.aging.lse_events_per_year = 6.0;
  config.aging.voxel_erasure_fraction = 0.95;  // struck sectors are dead
  SilicaService service(config);
  Rng rng(6);
  std::vector<std::pair<std::string, std::vector<uint8_t>>> files;
  for (int i = 0; i < 8; ++i) {
    std::vector<uint8_t> bytes(30000);
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    files.emplace_back("acct/f" + std::to_string(i), bytes);
    service.Put(files.back().first, 7, bytes);
  }
  service.Flush();

  const auto version = service.metadata().Lookup("acct/f0");
  ASSERT_TRUE(version.has_value());
  const auto struck = service.AgePlatter(version->platter_id, 4.0);
  ASSERT_TRUE(struck.has_value());
  ASSERT_GT(*struck, 0u);

  const auto scrub = service.ScrubPlatter(version->platter_id);
  ASSERT_TRUE(scrub.has_value());
  EXPECT_GT(scrub->detection.sector_erasures, 0u);
  EXPECT_GT(scrub->ledger.detected, 0u);
  EXPECT_TRUE(scrub->ledger.Conserves());
  EXPECT_FALSE(scrub->data_lost);
  EXPECT_TRUE(scrub->replaced);

  // Fresh glass: a second scrub finds a healthy platter, and every file on it
  // still reads back byte-identical.
  const auto rescrub = service.ScrubPlatter(version->platter_id);
  ASSERT_TRUE(rescrub.has_value());
  EXPECT_FALSE(rescrub->replaced);
  for (const auto& [name, bytes] : files) {
    const auto got = service.Get(name);
    ASSERT_TRUE(got.has_value()) << name;
    EXPECT_EQ(*got, bytes) << name;
  }

  EXPECT_FALSE(service.AgePlatter(999999, 1.0).has_value());
  EXPECT_FALSE(service.ScrubPlatter(999999).has_value());
}

// ---------------------------------------------------------------------------
// The library twin: background scrub, repair escalation, conservation.
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

TEST(ScrubbedLibrary, DisabledScrubAndAgingLeaveOutcomeAllZero) {
  auto config = TwinConfig(7);
  const auto trace = UniformTrace(100, 5.0, config.num_info_platters, 4 * kMiB);
  const auto result = SimulateLibrary(config, trace);
  const auto& s = result.scrub;
  EXPECT_EQ(s.aging_events, 0u);
  EXPECT_EQ(s.latent_sectors, 0u);
  EXPECT_EQ(s.scrubs_completed, 0u);
  EXPECT_EQ(s.scrub_detections, 0u);
  EXPECT_EQ(s.read_detections, 0u);
  EXPECT_EQ(s.rebuilds_started, 0u);
  EXPECT_EQ(s.rebuild_reads, 0u);
  EXPECT_EQ(s.ledger.detected, 0u);
  EXPECT_EQ(s.ledger.repaired_total(), 0u);
  EXPECT_EQ(s.ledger.unrecoverable, 0u);
  EXPECT_DOUBLE_EQ(s.scrub_read_seconds, 0.0);
  EXPECT_DOUBLE_EQ(s.repair_read_seconds, 0.0);
}

// Property test: for 50 randomized seeds, the repair ledger conserves and
// request conservation survives the extra maintenance traffic.
TEST(ScrubbedLibrary, LedgerConservesAcrossSeeds) {
  uint64_t total_detected = 0;
  uint64_t total_scrub_detections = 0;
  uint64_t total_read_detections = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    auto config = TwinConfig(seed);
    config.faults.aging = MediaAgingConfig::Exponential(2.0 * 3600.0);
    config.scrub.enabled = true;
    config.scrub.platter_interval_s = 1800.0;
    config.scrub.track_sample_fraction = 0.2;
    const auto trace =
        UniformTrace(120, 5.0, config.num_info_platters, 4 * kMiB);
    const auto result = SimulateLibrary(config, trace);

    ASSERT_EQ(result.requests_completed + result.requests_failed,
              result.requests_total)
        << "seed " << seed;
    ASSERT_EQ(result.requests_failed, 0u) << "seed " << seed;
    const auto& s = result.scrub;
    ASSERT_TRUE(s.ledger.Conserves())
        << "seed " << seed << ": detected " << s.ledger.detected
        << " != repaired " << s.ledger.repaired_total() << " + unrecoverable "
        << s.ledger.unrecoverable;
    ASSERT_LE(s.ledger.detected, s.latent_sectors) << "seed " << seed;
    ASSERT_GE(s.rebuilds_started,
              s.rebuilds_completed)
        << "seed " << seed;
    total_detected += s.ledger.detected;
    total_scrub_detections += s.scrub_detections;
    total_read_detections += s.read_detections;
  }
  // The sweep must exercise both detection paths.
  EXPECT_GT(total_detected, 0u);
  EXPECT_GT(total_scrub_detections, 0u);
  EXPECT_GT(total_read_detections, 0u);
}

TEST(ScrubbedLibrary, SameSeedIsBitIdentical) {
  auto run = [] {
    auto config = TwinConfig(21);
    config.faults.aging = MediaAgingConfig::Exponential(1.5 * 3600.0);
    config.scrub.enabled = true;
    config.scrub.platter_interval_s = 1200.0;
    config.scrub.track_sample_fraction = 0.25;
    const auto trace =
        UniformTrace(150, 4.0, config.num_info_platters, 4 * kMiB);
    return SimulateLibrary(config, trace);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  const auto& sa = a.scrub;
  const auto& sb = b.scrub;
  EXPECT_EQ(sa.aging_events, sb.aging_events);
  EXPECT_EQ(sa.latent_sectors, sb.latent_sectors);
  EXPECT_EQ(sa.scrubs_completed, sb.scrubs_completed);
  EXPECT_EQ(sa.scrub_detections, sb.scrub_detections);
  EXPECT_EQ(sa.read_detections, sb.read_detections);
  EXPECT_EQ(sa.rebuilds_started, sb.rebuilds_started);
  EXPECT_EQ(sa.rebuilds_completed, sb.rebuilds_completed);
  EXPECT_EQ(sa.rebuild_retries, sb.rebuild_retries);
  EXPECT_EQ(sa.rebuild_reads, sb.rebuild_reads);
  EXPECT_DOUBLE_EQ(sa.scrub_read_seconds, sb.scrub_read_seconds);
  EXPECT_DOUBLE_EQ(sa.repair_read_seconds, sb.repair_read_seconds);
  EXPECT_EQ(sa.ledger.detected, sb.ledger.detected);
  for (int t = 0; t < kNumRepairTiers; ++t) {
    EXPECT_EQ(sa.ledger.repaired[t], sb.ledger.repaired[t]) << "tier " << t;
  }
  EXPECT_EQ(sa.ledger.unrecoverable, sb.ledger.unrecoverable);
  EXPECT_EQ(sa.ledger.bytes_lost, sb.ledger.bytes_lost);
}

TEST(ScrubbedLibrary, AgingWithoutScrubOnlySurfacesOnCustomerReads) {
  auto config = TwinConfig(9);
  config.faults.aging = MediaAgingConfig::Exponential(1.0 * 3600.0);
  const auto trace = UniformTrace(200, 5.0, config.num_info_platters, 4 * kMiB);
  const auto result = SimulateLibrary(config, trace);
  const auto& s = result.scrub;
  EXPECT_GT(s.aging_events, 0u);
  EXPECT_EQ(s.scrubs_completed, 0u);
  EXPECT_EQ(s.scrub_detections, 0u);
  EXPECT_GT(s.read_detections, 0u)
      << "customer sessions are the only detector without scrubbing";
  // Inline customer-read repair reaches tier 0 only; deeper latent damage sits
  // flagged-suspect but unrepaired — the motivation for background scrubbing.
  EXPECT_GT(s.ledger.repaired[static_cast<int>(RepairTier::kLdpcRetry)], 0u);
  for (int t = 1; t < kNumRepairTiers; ++t) {
    EXPECT_EQ(s.ledger.repaired[t], 0u) << "tier " << t;
  }
  EXPECT_EQ(s.ledger.detected,
            s.ledger.repaired[static_cast<int>(RepairTier::kLdpcRetry)]);
  EXPECT_TRUE(s.ledger.Conserves());
}

TEST(ScrubbedLibrary, EveryRepairTierFiresAndNoBytesAreLost) {
  // The bench_durability moderate cell: aggressive enough aging that every
  // tier of the ladder does real work, yet 16+3 still loses nothing.
  LibrarySimConfig config;
  config.library.policy = LibraryConfig::Policy::kPartitioned;
  config.library.num_shuttles = 20;
  config.library.drive_throughput_mbps = 60.0;
  config.num_info_platters = 400;
  config.seed = 17;
  config.faults.aging = MediaAgingConfig::Exponential(8.0 * 3600.0);
  config.scrub.enabled = true;
  config.scrub.platter_interval_s = 1800.0;
  config.scrub.track_sample_fraction = 0.2;
  const auto trace = GenerateTrace(TraceProfile::Iops(42), 400);
  config.measure_start = trace.measure_start;
  config.measure_end = trace.measure_end;
  const auto result = SimulateLibrary(config, trace.requests);

  const auto& s = result.scrub;
  EXPECT_EQ(result.requests_completed + result.requests_failed,
            result.requests_total);
  for (int t = 0; t < kNumRepairTiers; ++t) {
    EXPECT_GT(s.ledger.repaired[t], 0u)
        << "tier " << RepairTierName(static_cast<RepairTier>(t))
        << " never repaired anything";
  }
  EXPECT_GT(s.rebuilds_completed, 0u);
  EXPECT_GT(s.rebuild_reads, 0u);
  EXPECT_GT(s.scrub_detections, 0u);
  EXPECT_TRUE(s.ledger.Conserves());
  EXPECT_EQ(s.ledger.unrecoverable, 0u)
      << "16+3 with readable peers must lose nothing";
  EXPECT_EQ(s.ledger.bytes_lost, 0u);
}

// ---------------------------------------------------------------------------
// LazyRepairQueue: urgency order, byte budget, eviction, state round-trip.
// ---------------------------------------------------------------------------

LazyRepairEntry Entry(uint64_t platter, int remaining, uint64_t bytes,
                      double admitted_at) {
  LazyRepairEntry e;
  e.platter = platter;
  e.remaining_redundancy = remaining;
  e.tier = RepairTier::kLdpcRetry;
  e.sectors = 1;
  e.bytes = bytes;
  e.admitted_at = admitted_at;
  return e;
}

TEST(LazyRepairQueue, DrainsClosestToLossFirst) {
  LazyRepairQueue q;
  LazyRepairConfig config;
  config.enabled = true;
  config.bandwidth_bytes_per_s = 1.0e12;  // budget never binds
  q.Configure(config, 0.0);
  q.Admit(Entry(/*platter=*/1, /*remaining=*/3, /*bytes=*/100, /*at=*/0.0));
  q.Admit(Entry(2, 1, 100, 5.0));  // most urgent despite latest admission...
  q.Admit(Entry(3, 1, 100, 2.0));  // ...except this one was admitted earlier
  q.Admit(Entry(4, 2, 100, 1.0));

  std::vector<uint64_t> order;
  q.Drain(10.0, [&](const LazyRepairEntry& e) { order.push_back(e.platter); });
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order, (std::vector<uint64_t>{3, 2, 4, 1}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.queued_bytes(), 0u);
}

TEST(LazyRepairQueue, DrainNeverExceedsAccruedBudget) {
  LazyRepairQueue q;
  LazyRepairConfig config;
  config.enabled = true;
  config.bandwidth_bytes_per_s = 100.0;  // 100 B/s
  q.Configure(config, 0.0);
  for (int i = 0; i < 10; ++i) {
    q.Admit(Entry(static_cast<uint64_t>(i), 2, /*bytes=*/250, 0.0));
  }
  // Tokens accrue linearly; entries pop whole or not at all.
  double elapsed = 0.0;
  uint64_t popped = 0;
  for (const double now : {1.0, 2.5, 5.0, 7.5, 12.5, 30.0}) {
    popped += q.Drain(now, [](const LazyRepairEntry&) {});
    elapsed = now;
    EXPECT_LE(static_cast<double>(q.drained_bytes()),
              config.bandwidth_bytes_per_s * elapsed)
        << "at t=" << now;
  }
  // 30 s x 100 B/s = 3000 B = exactly 12 entries' worth, but only 10 exist.
  EXPECT_EQ(popped, 10u);
  // A fresh entry larger than the leftover tokens must wait.
  q.Admit(Entry(99, 0, /*bytes=*/100000, 30.0));
  EXPECT_EQ(q.Drain(30.0, [](const LazyRepairEntry&) {}), 0u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(LazyRepairQueue, EvictRemovesEveryEntryForThePlatter) {
  LazyRepairQueue q;
  LazyRepairConfig config;
  config.enabled = true;
  q.Configure(config, 0.0);
  q.Admit(Entry(7, 1, 100, 0.0));
  q.Admit(Entry(8, 2, 150, 0.0));
  q.Admit(Entry(7, 3, 200, 1.0));
  const auto evicted = q.Evict(7);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.queued_bytes(), 150u);
  // Evicted entries are the caller's ledger problem: not counted drained.
  EXPECT_EQ(q.drained(), 0u);
  EXPECT_EQ(q.admitted(), 3u);
}

TEST(LazyRepairQueue, StateRoundTripDrainsIdentically) {
  LazyRepairConfig config;
  config.enabled = true;
  config.bandwidth_bytes_per_s = 200.0;

  LazyRepairQueue a;
  a.Configure(config, 0.0);
  for (int i = 0; i < 6; ++i) {
    a.Admit(Entry(static_cast<uint64_t>(i), i % 3, 300 + 10u * i, 0.5 * i));
  }
  a.Drain(2.0, [](const LazyRepairEntry&) {});  // leave mid-stream tokens

  StateWriter w;
  w(a);
  const auto bytes = w.Take();
  LazyRepairQueue b;
  b.Configure(config, 0.0);  // config is not serialized; caller re-applies
  StateReader r(bytes);
  r(b);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.queued_bytes(), b.queued_bytes());
  EXPECT_EQ(a.drained_bytes(), b.drained_bytes());

  std::vector<uint64_t> oa;
  std::vector<uint64_t> ob;
  a.Drain(30.0, [&](const LazyRepairEntry& e) { oa.push_back(e.platter); });
  b.Drain(30.0, [&](const LazyRepairEntry& e) { ob.push_back(e.platter); });
  EXPECT_EQ(oa, ob);
  EXPECT_EQ(a.drained_bytes(), b.drained_bytes());
}

TEST(LazyRepairQueue, DrainAllSettlesRegardlessOfBudget) {
  LazyRepairQueue q;
  LazyRepairConfig config;
  config.enabled = true;
  config.bandwidth_bytes_per_s = 1.0;  // starved
  q.Configure(config, 0.0);
  q.Admit(Entry(1, 0, 1000000, 0.0));
  q.Admit(Entry(2, 1, 1000000, 0.0));
  EXPECT_EQ(q.Drain(1.0, [](const LazyRepairEntry&) {}), 0u);
  EXPECT_EQ(q.DrainAll(1.0, [](const LazyRepairEntry&) {}), 2u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.queued_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Lazy repair in the twin: budget adherence + ledger conservation in a storm.
// ---------------------------------------------------------------------------

LibrarySimConfig LazyStormConfig(uint64_t seed) {
  auto config = TwinConfig(seed);
  config.faults.shuttle = FaultProcess::Exponential(1500.0, 200.0);
  config.faults.drive = FaultProcess::Exponential(2500.0, 300.0);
  config.faults.rack = FaultProcess::Exponential(4000.0, 400.0);
  config.faults.aging = MediaAgingConfig::Exponential(1.5 * 3600.0);
  // Bound the storm: an open-ended window keeps re-darkening platters faster
  // than the retry ladder climbs, so the tail of the run stretches into
  // sim-years of churn. The invariants under test (budget adherence, ledger
  // conservation) are fully exercised within the window.
  config.faults.inject_until_s = 4000.0;
  config.scrub.enabled = true;
  config.scrub.platter_interval_s = 1800.0;
  config.scrub.track_sample_fraction = 0.2;
  config.lazy_repair.enabled = true;
  config.lazy_repair.bandwidth_bytes_per_s = 512.0 * 1024.0;
  config.lazy_repair.drain_interval_s = 30.0;
  return config;
}

TEST(LazyRepairLibrary, StormHoldsBudgetAndConservesLedgerAcrossSeeds) {
  uint64_t total_admitted = 0;
  uint64_t total_drained = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const auto config = LazyStormConfig(seed);
    const auto trace =
        UniformTrace(120, 5.0, config.num_info_platters, 4 * kMiB);
    const auto result = SimulateLibrary(config, trace);

    ASSERT_EQ(result.requests_completed + result.requests_failed,
              result.requests_total)
        << "seed " << seed;
    const auto& s = result.scrub;
    ASSERT_TRUE(s.ledger.Conserves())
        << "seed " << seed << ": detected " << s.ledger.detected
        << " != repaired " << s.ledger.repaired_total() << " + unrecoverable "
        << s.ledger.unrecoverable;
    // Every admitted entry resolves exactly once: budget-gated drain,
    // end-of-run settlement, or eviction (platter lost / rebuilt wholesale).
    ASSERT_GE(s.lazy_admitted, s.lazy_drained + s.lazy_settled)
        << "seed " << seed;
    // Budget adherence: budget-gated repair traffic never outruns the token
    // bucket. The final clock is recovered from the per-drive time ledger
    // (every drive's read + verify + switch + idle sums to the run's end).
    const double end =
        (result.drive_read_seconds + result.drive_verify_seconds +
         result.drive_switch_seconds + result.drive_idle_seconds) /
        config.library.num_read_drives();
    ASSERT_LE(static_cast<double>(s.lazy_drained_bytes),
              config.lazy_repair.bandwidth_bytes_per_s * end + 1.0)
        << "seed " << seed;
    total_admitted += s.lazy_admitted;
    total_drained += s.lazy_drained;
  }
  // The sweep must exercise the lazy path for the invariants to mean anything.
  EXPECT_GT(total_admitted, 0u);
  EXPECT_GT(total_drained, 0u);
}

// Capacity unification: lazy repairs bill the byte budget, not the drive
// verify clock, so under the same storm the lazy run's verify clock carries
// only scrub passes while the eager run's also absorbs the inline repair
// phases. Saturating both paths pins the no-double-spend split.
TEST(LazyRepairLibrary, LazyRepairsDoNotSpendTheVerifyClock) {
  auto eager_config = LazyStormConfig(13);
  eager_config.lazy_repair.enabled = false;
  auto lazy_config = LazyStormConfig(13);
  lazy_config.lazy_repair.bandwidth_bytes_per_s = 1.0e12;  // drain instantly
  const auto trace =
      UniformTrace(120, 5.0, eager_config.num_info_platters, 4 * kMiB);
  const auto eager = SimulateLibrary(eager_config, trace);
  const auto lazy = SimulateLibrary(lazy_config, trace);

  ASSERT_TRUE(eager.scrub.ledger.Conserves());
  ASSERT_TRUE(lazy.scrub.ledger.Conserves());
  ASSERT_GT(lazy.scrub.lazy_admitted, 0u);
  ASSERT_GT(eager.scrub.repair_read_seconds, 0.0);
  ASSERT_GT(lazy.scrub.repair_read_seconds, 0.0);
  // Eager: the inline repair phase elapses on the verify clock, so the clock
  // dominates the pure pass cost by at least that phase's analytic cost.
  EXPECT_GE(eager.drive_verify_seconds,
            eager.scrub.scrub_read_seconds +
                0.9 * eager.scrub.repair_read_seconds);
  // Lazy: repair traffic is billed to the byte budget only; the verify clock
  // stays in the neighborhood of the pass cost instead of absorbing repairs.
  EXPECT_LT(lazy.drive_verify_seconds,
            lazy.scrub.scrub_read_seconds +
                0.5 * lazy.scrub.repair_read_seconds);
}

// ---------------------------------------------------------------------------
// DurabilityModel: rare-event MTTDL estimator.
// ---------------------------------------------------------------------------

// A deliberately fragile fleet: losses frequent enough that brute-force Monte
// Carlo sees them, so splitting can be validated against it — but not so
// frequent that p_loss saturates at 1 and the two estimators become
// indistinguishable. At 0.3 failures/platter/year and a 10-day detection lag,
// roughly a third of one-year trajectories lose a set.
DurabilityConfig FragileFleet() {
  DurabilityConfig config;
  config.num_sets = 16;
  config.n = 5;
  config.k = 4;  // one failure tolerated
  config.fail_rate_per_platter_year = 0.3;
  config.scrub_interval_s = 10.0 * 24.0 * 3600.0;
  config.repair_bandwidth_bytes_per_s = 20.0e6;
  config.horizon_s = 1.0 * 365.25 * 24.0 * 3600.0;
  config.seed = 77;
  return config;
}

TEST(DurabilityModel, StateRoundTripContinuesIdentically) {
  const auto config = FragileFleet();
  DurabilityModel model(config);
  auto s = model.MakeInitialState(3);
  for (int i = 0; i < 200; ++i) {
    const auto outcome = model.Step(s);
    if (outcome == DurabilityModel::StepOutcome::kLoss ||
        outcome == DurabilityModel::StepOutcome::kHorizon) {
      s = model.MakeInitialState(3 + static_cast<uint64_t>(i));
    }
  }
  StateWriter w;
  w(s);
  const auto bytes = w.Take();
  StateReader r(bytes);
  auto restored = model.Restore(r);
  EXPECT_TRUE(r.AtEnd());

  // Both copies must walk the identical trajectory to termination.
  for (int i = 0; i < 100000; ++i) {
    const auto oa = model.Step(s);
    const auto ob = model.Step(restored);
    ASSERT_EQ(oa, ob) << "step " << i;
    ASSERT_DOUBLE_EQ(s.now, restored.now) << "step " << i;
    ASSERT_EQ(s.failures, restored.failures) << "step " << i;
    if (oa == DurabilityModel::StepOutcome::kLoss ||
        oa == DurabilityModel::StepOutcome::kHorizon) {
      break;
    }
  }
  EXPECT_EQ(s.lost, restored.lost);
  EXPECT_DOUBLE_EQ(s.loss_time, restored.loss_time);
}

TEST(DurabilityModel, EstimateIsDeterministicForSeed) {
  const auto config = FragileFleet();
  const auto a = EstimateMttdl(config, /*roots=*/50, /*split_k=*/4);
  const auto b = EstimateMttdl(config, /*roots=*/50, /*split_k=*/4);
  EXPECT_DOUBLE_EQ(a.p_loss, b.p_loss);
  EXPECT_EQ(a.trajectories, b.trajectories);
  EXPECT_EQ(a.events, b.events);
}

// Acceptance criterion: the splitting estimator agrees with brute-force Monte
// Carlo within overlapping 95% CIs on a config where brute force works.
TEST(DurabilityModel, SplittingAgreesWithBruteForceWithinCi) {
  const auto config = FragileFleet();
  const auto mc = EstimateMttdl(config, /*roots=*/400, /*split_k=*/1);
  const auto split = EstimateMttdl(config, /*roots=*/400, /*split_k=*/6);
  ASSERT_GT(mc.loss_branches, 0u)
      << "brute force saw no losses: the validation config is too safe";
  ASSERT_GT(split.loss_branches, 0u);
  // 95% CIs overlap.
  EXPECT_LE(split.ci_low, mc.ci_high)
      << "split [" << split.ci_low << ", " << split.ci_high << "] vs mc ["
      << mc.ci_low << ", " << mc.ci_high << "]";
  EXPECT_LE(mc.ci_low, split.ci_high)
      << "split [" << split.ci_low << ", " << split.ci_high << "] vs mc ["
      << mc.ci_low << ", " << mc.ci_high << "]";
  // Splitting spends its work where it matters: more loss observations.
  EXPECT_GT(split.loss_branches, mc.loss_branches);
}

// The frontier's qualitative shape: starving the lazy repair budget must cost
// durability, and adding redundancy must buy it back.
TEST(DurabilityModel, StarvedLazyBudgetLowersDurability) {
  auto healthy = FragileFleet();
  healthy.lazy = true;
  auto starved = healthy;
  starved.repair_bandwidth_bytes_per_s = 10.0e3;  // ~forever per repair
  const auto a = EstimateMttdl(healthy, /*roots=*/300, /*split_k=*/4);
  const auto b = EstimateMttdl(starved, /*roots=*/300, /*split_k=*/4);
  EXPECT_GT(b.p_loss, a.p_loss)
      << "starving the repair budget must increase loss probability";
}

TEST(DurabilityModel, ExtraRedundancyBuysDurability) {
  auto thin = FragileFleet();
  thin.lazy = true;
  auto deep = thin;
  deep.n = 7;  // same k: two more redundant platters per set
  const auto a = EstimateMttdl(thin, /*roots=*/300, /*split_k=*/4);
  const auto b = EstimateMttdl(deep, /*roots=*/300, /*split_k=*/4);
  EXPECT_LT(b.p_loss, a.p_loss)
      << "n=7,k=4 must beat n=5,k=4 at the same budget";
}

TEST(DurabilityModel, EstimateRejectsEveryBound) {
  const auto expect_rejected = [](const DurabilityConfig& config, int roots,
                                  int split_k, const std::string& needle) {
    try {
      (void)EstimateMttdl(config, roots, split_k);
      FAIL() << "expected std::invalid_argument mentioning \"" << needle << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  const DurabilityConfig good = FragileFleet();
  expect_rejected(good, 1, 4, "roots");
  expect_rejected(good, 50, 0, "split_k");
  DurabilityConfig c = good;
  c.num_sets = 0;
  expect_rejected(c, 50, 4, "num_sets");
  c = good;
  c.k = c.n;
  expect_rejected(c, 50, 4, "n > k");
  c = good;
  c.fail_rate_per_platter_year = 0.0;
  expect_rejected(c, 50, 4, "fail_rate_per_platter_year");
  c = good;
  c.repair_bandwidth_bytes_per_s = -1.0;
  expect_rejected(c, 50, 4, "repair_bandwidth_bytes_per_s");
  c = good;
  c.scrub_interval_s = 0.0;
  expect_rejected(c, 50, 4, "scrub_interval_s");
  c = good;
  c.horizon_s = 0.0;
  expect_rejected(c, 50, 4, "horizon_s");
}

TEST(DurabilityModel, JsonReportIsWellFormed) {
  const auto config = FragileFleet();
  const auto estimate = EstimateMttdl(config, /*roots=*/50, /*split_k=*/4);
  const auto json = MttdlEstimateToJson(config, estimate, /*split_k=*/4, 0);
  EXPECT_NE(json.find("\"p_loss\""), std::string::npos);
  EXPECT_NE(json.find("\"mttdl_years\""), std::string::npos);
  EXPECT_NE(json.find("\"p_loss_ci95\""), std::string::npos);
  EXPECT_NE(json.find("\"split_k\""), std::string::npos);
}

}  // namespace
}  // namespace silica
