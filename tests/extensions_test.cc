// Tests for the extension subsystems: channel estimation, multi-library
// deployments, per-drive throughput heterogeneity, and the shuttle battery model.
#include <gtest/gtest.h>

#include "channel/channel_estimator.h"
#include "channel/sector_codec.h"
#include "channel/soft_decoder.h"
#include "common/units.h"
#include "core/deployment.h"
#include "core/library_sim.h"
#include "workload/trace_gen.h"

namespace silica {
namespace {

// ---------- Channel estimation ----------

TEST(ChannelEstimator, RecoversTrueSigmas) {
  Constellation constellation(3);
  ReadChannelParams truth{.retardance_sigma = 0.05,
                          .azimuth_sigma = 0.08,
                          .isi_coupling = 0.0,
                          .layer_crosstalk = 0.0};
  WriteChannel writer(constellation, {.voxel_miss_prob = 0.0, .burst_miss_prob = 0.0});
  ReadChannel reader(truth);
  Rng rng(1);

  ChannelEstimator estimator(constellation);
  std::vector<uint16_t> pilots(4096);
  for (size_t i = 0; i < pilots.size(); ++i) {
    pilots[i] = static_cast<uint16_t>(i % 8);
  }
  const auto analog = writer.WriteSector(pilots, 64, 64, rng);
  const auto measured = reader.ReadSector(analog, rng);
  estimator.AddPilots(pilots, measured);

  const auto estimate = estimator.Estimate();
  EXPECT_EQ(estimate.samples, 4096u);
  EXPECT_NEAR(estimate.retardance_sigma, 0.05, 0.01);
  EXPECT_NEAR(estimate.azimuth_sigma, 0.08, 0.02);
}

TEST(ChannelEstimator, TooFewPilotsFailLoudlyInTheDecoder) {
  // Fewer than 2 pilots estimate sigma = 0; a decoder built from that would
  // turn every LLR into NaN, so construction must throw instead.
  const Constellation constellation(3);
  ChannelEstimator estimator(constellation);
  const std::vector<uint16_t> pilot = {5};
  const std::vector<VoxelObservable> measured = {constellation.Point(5)};
  estimator.AddPilots(pilot, measured);
  const ReadChannelParams params = estimator.Estimate().ToParams();
  EXPECT_EQ(params.retardance_sigma, 0.0);
  EXPECT_THROW(SoftDecoder(constellation, params), std::invalid_argument);
}

TEST(ChannelEstimator, CalibratedDecoderBeatsStale) {
  // The real channel got noisier than the decoder assumes; recalibrating from
  // pilots must restore decode success.
  const MediaGeometry g = MediaGeometry::DataPlaneScale();
  const Constellation constellation(g.bits_per_voxel);
  const SectorCodec codec(g);
  ReadChannelParams real{.retardance_sigma = 0.10,
                         .azimuth_sigma = 0.22,
                         .isi_coupling = 0.04,
                         .layer_crosstalk = 0.02};
  WriteChannel writer(constellation, {});
  ReadChannel reader(real);
  Rng rng(2);

  // Stale decoder: believes the channel is much quieter than it is.
  ReadChannelParams stale{.retardance_sigma = 0.004, .azimuth_sigma = 0.006};
  SoftDecoder stale_decoder(constellation, stale);

  // Calibrate from pilot reads.
  ChannelEstimator estimator(constellation);
  std::vector<uint16_t> pilots(
      static_cast<size_t>(g.voxels_per_sector()));
  for (size_t i = 0; i < pilots.size(); ++i) {
    pilots[i] = static_cast<uint16_t>(i % 8);
  }
  for (int round = 0; round < 4; ++round) {
    const auto analog = writer.WriteSector(pilots, g.sector_rows, g.sector_cols, rng);
    estimator.AddPilots(pilots, reader.ReadSector(analog, rng));
  }
  SoftDecoder calibrated(constellation, estimator.Estimate().ToParams());

  int stale_ok = 0;
  int calibrated_ok = 0;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    std::vector<uint8_t> payload(codec.payload_bytes());
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    const auto symbols = codec.EncodeSector(payload);
    const auto analog = writer.WriteSector(symbols, g.sector_rows, g.sector_cols, rng);
    const auto measured = reader.ReadSector(analog, rng);
    if (auto d = codec.DecodeFromLlrs(stale_decoder.DemapToLlrs(measured));
        d && *d == payload) {
      ++stale_ok;
    }
    if (auto d = codec.DecodeFromLlrs(calibrated.DemapToLlrs(measured));
        d && *d == payload) {
      ++calibrated_ok;
    }
  }
  EXPECT_GT(calibrated_ok, stale_ok);
  EXPECT_GE(calibrated_ok, trials - 1);
}

// ---------- Deployment ----------

TEST(Deployment, RoutingPartitionsAllPlatters) {
  DeploymentConfig config;
  config.num_libraries = 3;
  config.library.num_info_platters = 100;
  for (uint64_t g = 0; g < 300; ++g) {
    const auto route = RoutePlatter(g, config);
    EXPECT_GE(route.library, 0);
    EXPECT_LT(route.library, 3);
    EXPECT_LT(route.local_platter, 100u);
  }
}

TEST(Deployment, SpreadBalancesSkewedLoadBetterThanPacked) {
  auto profile = TraceProfile::Iops(3);
  profile.window_s = 2.0 * kHour;
  profile.warmup_s = 600.0;
  profile.cooldown_s = 600.0;
  profile.zipf_skew = 1.0;  // hot low-numbered platters
  const auto trace = GenerateTrace(profile, 900);

  // Three small libraries: the packed placement concentrates the Zipf head in
  // library 0, overwhelming its few shuttles/drives.
  DeploymentConfig config;
  config.num_libraries = 3;
  config.library.library.drives_per_read_rack = 3;
  config.library.library.num_shuttles = 6;
  config.library.num_info_platters = 300;
  config.library.measure_start = trace.measure_start;
  config.library.measure_end = trace.measure_end;

  config.spread = PlatterSpread::kSpread;
  const auto spread = SimulateDeployment(config, trace.requests);
  config.spread = PlatterSpread::kPacked;
  const auto packed = SimulateDeployment(config, trace.requests);

  // Hot head platters land in one library when packed; spreading flattens it.
  EXPECT_LT(spread.LoadImbalance(), packed.LoadImbalance());
  EXPECT_LE(spread.completion_times.Percentile(0.999),
            packed.completion_times.Percentile(0.999));
  EXPECT_EQ(spread.requests_total, packed.requests_total);
}

// ---------- Heterogeneous drives ----------

TEST(HeterogeneousDrives, FasterDrivesReduceVolumeTail) {
  auto profile = TraceProfile::Volume(4);
  profile.window_s = 3.0 * kHour;
  const auto trace = GenerateTrace(profile, 1000);

  LibrarySimConfig slow;
  slow.num_info_platters = 1000;
  slow.measure_start = trace.measure_start;
  slow.measure_end = trace.measure_end;
  slow.library.drive_throughput_mbps = 30.0;

  auto mixed = slow;
  mixed.library.drive_throughputs_mbps.assign(20, 30.0);
  for (int d = 0; d < 10; ++d) {
    mixed.library.drive_throughputs_mbps[static_cast<size_t>(d)] = 120.0;
  }

  const auto r_slow = SimulateLibrary(slow, trace.requests);
  const auto r_mixed = SimulateLibrary(mixed, trace.requests);
  EXPECT_LT(r_mixed.completion_times.Percentile(0.999),
            r_slow.completion_times.Percentile(0.999));
}

// ---------- Shuttle batteries ----------

TEST(Battery, TinyBatteriesForceRecharges) {
  const auto trace = GenerateTrace(TraceProfile::Iops(5), 500);
  LibrarySimConfig config;
  config.num_info_platters = 500;
  config.measure_start = trace.measure_start;
  config.measure_end = trace.measure_end;

  auto tiny = config;
  tiny.library.shuttle_battery_capacity = 200.0;  // a handful of trips
  tiny.library.shuttle_recharge_s = 120.0;

  const auto normal = SimulateLibrary(config, trace.requests);
  const auto drained = SimulateLibrary(tiny, trace.requests);

  EXPECT_EQ(normal.requests_completed, drained.requests_completed);
  EXPECT_GT(drained.shuttle_recharges, normal.shuttle_recharges);
  EXPECT_GT(drained.shuttle_recharges, 0u);
  // Charging downtime costs tail latency.
  EXPECT_GE(drained.completion_times.Percentile(0.999),
            normal.completion_times.Percentile(0.999));
}

TEST(ShuttleFailures, RemainingShuttlesAbsorbTheLoad) {
  auto profile = TraceProfile::Iops(7);
  profile.window_s = 3.0 * kHour;
  const auto trace = GenerateTrace(profile, 800);

  LibrarySimConfig healthy;
  healthy.num_info_platters = 800;
  healthy.measure_start = trace.measure_start;
  healthy.measure_end = trace.measure_end;

  auto degraded = healthy;
  // A third of the fleet fails mid-window.
  for (int s = 0; s < 7; ++s) {
    degraded.shuttle_failures.emplace_back(trace.measure_start + 1800.0, s);
  }

  const auto rh = SimulateLibrary(healthy, trace.requests);
  const auto rd = SimulateLibrary(degraded, trace.requests);
  // Every request still completes (the controller routes around the failures)...
  EXPECT_EQ(rd.requests_completed, rd.requests_total);
  // ...at a latency cost.
  EXPECT_GT(rd.completion_times.Percentile(0.999),
            rh.completion_times.Percentile(0.999));
}

TEST(ShuttleFailures, AllShuttlesFailingStallsUnfinishedWork) {
  // Sanity: failures before any arrivals leave fetch capacity at zero, but the
  // simulation must terminate (no deadlock / infinite loop) with work undone.
  ReadTrace trace;
  for (int i = 0; i < 5; ++i) {
    trace.push_back(ReadRequest{.id = static_cast<uint64_t>(i + 1),
                                .arrival = 100.0,
                                .file_id = static_cast<uint64_t>(i + 1),
                                .bytes = 4 << 20,
                                .platter = static_cast<uint64_t>(i)});
  }
  LibrarySimConfig config;
  config.num_info_platters = 100;
  for (int s = 0; s < config.library.num_shuttles; ++s) {
    config.shuttle_failures.emplace_back(1.0, s);
  }
  const auto result = SimulateLibrary(config, trace);
  EXPECT_EQ(result.requests_completed, 0u);
}

TEST(Battery, DisabledModelNeverRecharges) {
  const auto trace = GenerateTrace(TraceProfile::Typical(6), 500);
  LibrarySimConfig config;
  config.num_info_platters = 500;
  config.library.shuttle_battery_capacity = 0.0;  // disabled
  const auto result = SimulateLibrary(config, trace.requests);
  EXPECT_EQ(result.shuttle_recharges, 0u);
}

}  // namespace
}  // namespace silica
