#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/units.h"
#include "core/library_sim.h"
#include "workload/trace_gen.h"

namespace silica {
namespace {

LibrarySimConfig SmallConfig(LibraryConfig::Policy policy) {
  LibrarySimConfig config;
  config.library.policy = policy;
  config.library.num_shuttles = 8;
  config.library.storage_racks = 6;
  config.num_info_platters = 400;
  config.seed = 7;
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

class PolicyCompletion
    : public ::testing::TestWithParam<LibraryConfig::Policy> {};

TEST_P(PolicyCompletion, AllRequestsComplete) {
  auto config = SmallConfig(GetParam());
  const auto trace = UniformTrace(200, 5.0, config.num_info_platters, 4 * kMiB);
  const auto result = SimulateLibrary(config, trace);
  EXPECT_EQ(result.requests_completed, 200u);
  EXPECT_EQ(result.requests_total, 200u);
  EXPECT_EQ(result.completion_times.count(), 200u);
  EXPECT_GT(result.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicyCompletion,
                         ::testing::Values(LibraryConfig::Policy::kPartitioned,
                                           LibraryConfig::Policy::kShortestPaths,
                                           LibraryConfig::Policy::kNoShuttles));

TEST(LibrarySim, DeterministicForSeed) {
  auto config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  const auto trace = UniformTrace(100, 10.0, config.num_info_platters, 4 * kMiB);
  const auto a = SimulateLibrary(config, trace);
  const auto b = SimulateLibrary(config, trace);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.completion_times.Percentile(0.999),
                   b.completion_times.Percentile(0.999));
  EXPECT_DOUBLE_EQ(a.travel_energy_total, b.travel_energy_total);
  EXPECT_EQ(a.travels, b.travels);
}

TEST(LibrarySim, SeedChangesOutcome) {
  auto config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  const auto trace = UniformTrace(100, 10.0, config.num_info_platters, 4 * kMiB);
  auto config2 = config;
  config2.seed = 8;
  const auto a = SimulateLibrary(config, trace);
  const auto b = SimulateLibrary(config2, trace);
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(LibrarySim, NoShuttlesIsLowerBound) {
  // NS assumes infinitely fast platter delivery; its tail completion must not
  // exceed the Silica policy's under the same load.
  auto partitioned = SmallConfig(LibraryConfig::Policy::kPartitioned);
  auto ns = SmallConfig(LibraryConfig::Policy::kNoShuttles);
  const auto trace = UniformTrace(300, 2.0, partitioned.num_info_platters, 16 * kMiB);
  const auto rp = SimulateLibrary(partitioned, trace);
  const auto rn = SimulateLibrary(ns, trace);
  EXPECT_LE(rn.completion_times.Percentile(0.999),
            rp.completion_times.Percentile(0.999));
  EXPECT_EQ(rn.travels, 0u);  // NS moves nothing
  EXPECT_EQ(rn.travel_energy_total, 0.0);
}

TEST(LibrarySim, MechanicalFloorRespected) {
  // A single tiny request cannot complete faster than switch + mount + seek floor.
  auto config = SmallConfig(LibraryConfig::Policy::kNoShuttles);
  ReadTrace trace = UniformTrace(1, 1.0, config.num_info_platters, 1);
  const auto result = SimulateLibrary(config, trace);
  EXPECT_EQ(result.requests_completed, 1u);
  EXPECT_GT(result.completion_times.max(), 2.0);  // 1s switch + 1s mount + seek
}

TEST(LibrarySim, PartitionedCongestionBelowShortestPaths) {
  auto partitioned = SmallConfig(LibraryConfig::Policy::kPartitioned);
  partitioned.library.work_stealing = false;
  auto sp = SmallConfig(LibraryConfig::Policy::kShortestPaths);
  const auto trace = UniformTrace(600, 1.0, partitioned.num_info_platters, 4 * kMiB);
  const auto rp = SimulateLibrary(partitioned, trace);
  const auto rs = SimulateLibrary(sp, trace);
  EXPECT_LT(rp.CongestionOverheadFraction(), rs.CongestionOverheadFraction() + 1e-9);
}

TEST(LibrarySim, DriveUtilizationHighWithFastSwitching) {
  auto config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  const auto trace = UniformTrace(300, 3.0, config.num_info_platters, 16 * kMiB);
  const auto result = SimulateLibrary(config, trace);
  // Verification fills all gaps: utilization above 90% (paper reports > 96%).
  EXPECT_GT(result.DriveUtilization(), 0.90);
  EXPECT_GT(result.drive_verify_seconds, 0.0);
}

TEST(LibrarySim, UnavailablePlattersTriggerRecoveryReads) {
  auto config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  config.unavailable_fraction = 0.10;
  const auto trace = UniformTrace(200, 5.0, config.num_info_platters, 4 * kMiB);
  const auto result = SimulateLibrary(config, trace);
  EXPECT_EQ(result.requests_completed, 200u);
  EXPECT_GT(result.recovery_reads, 0u);
  // Each recovery read amplifies into up to I_p = 16 sub-reads.
  EXPECT_GE(result.recovery_reads, 16u);
}

TEST(LibrarySim, UnavailabilityIncreasesTail) {
  auto healthy = SmallConfig(LibraryConfig::Policy::kPartitioned);
  auto degraded = healthy;
  degraded.unavailable_fraction = 0.10;
  const auto trace = UniformTrace(300, 3.0, healthy.num_info_platters, 16 * kMiB);
  const auto rh = SimulateLibrary(healthy, trace);
  const auto rd = SimulateLibrary(degraded, trace);
  EXPECT_GT(rd.completion_times.Percentile(0.999),
            rh.completion_times.Percentile(0.999));
}

TEST(LibrarySim, MeasurementWindowFiltersWarmup) {
  auto config = SmallConfig(LibraryConfig::Policy::kNoShuttles);
  config.measure_start = 500.0;
  config.measure_end = 1000.0;
  const auto trace = UniformTrace(150, 10.0, config.num_info_platters, 4 * kMiB);
  const auto result = SimulateLibrary(config, trace);
  // Only arrivals in [500, 1000] are measured: 50 arrivals (at 500..990).
  EXPECT_EQ(result.completion_times.count(), 51u);
  EXPECT_EQ(result.requests_completed, 150u);
}

TEST(LibrarySim, GroupingAmortizesFetches) {
  auto grouped = SmallConfig(LibraryConfig::Policy::kPartitioned);
  auto ungrouped = grouped;
  ungrouped.library.group_platter_requests = false;
  // Many requests for few platters arriving in bursts: grouping should need far
  // fewer shuttle travels.
  ReadTrace trace;
  for (int i = 0; i < 120; ++i) {
    ReadRequest r;
    r.id = static_cast<uint64_t>(i + 1);
    r.arrival = (i / 30) * 60.0;  // 4 bursts of 30 simultaneous requests
    r.file_id = r.id;
    r.bytes = 4 * kMiB;
    r.platter = static_cast<uint64_t>(i % 3);
    trace.push_back(r);
  }
  const auto rg = SimulateLibrary(grouped, trace);
  const auto ru = SimulateLibrary(ungrouped, trace);
  EXPECT_LT(rg.travels, ru.travels);
  EXPECT_EQ(rg.requests_completed, 120u);
  EXPECT_EQ(ru.requests_completed, 120u);
}

TEST(LibrarySim, UnavailabilityWithSkewStillCompletes) {
  // Combined stressors: Zipf-skewed placement plus 8% platter unavailability.
  auto config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  config.unavailable_fraction = 0.08;
  ReadTrace trace;
  Rng rng(99);
  ZipfTable zipf(config.num_info_platters, 0.9);
  for (int i = 0; i < 400; ++i) {
    ReadRequest r;
    r.id = static_cast<uint64_t>(i + 1);
    r.arrival = i * 2.0;
    r.file_id = r.id;
    r.bytes = 8 * kMiB;
    r.platter = zipf.Sample(rng);
    trace.push_back(r);
  }
  const auto result = SimulateLibrary(config, trace);
  EXPECT_EQ(result.requests_completed, 400u);
}

TEST(LibrarySim, NsHandlesUnavailabilityToo) {
  auto config = SmallConfig(LibraryConfig::Policy::kNoShuttles);
  config.unavailable_fraction = 0.10;
  const auto trace = UniformTrace(150, 4.0, config.num_info_platters, 4 * kMiB);
  const auto result = SimulateLibrary(config, trace);
  EXPECT_EQ(result.requests_completed, 150u);
  EXPECT_GT(result.recovery_reads, 0u);
}

TEST(LibrarySim, TraceBeyondPlattersThrows) {
  auto config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  ReadTrace trace = UniformTrace(1, 1.0, 1, 1);
  trace[0].platter = config.num_info_platters + 5;
  EXPECT_THROW(SimulateLibrary(config, trace), std::invalid_argument);
}

// Config validation happens before any simulation state is built, and the
// message names the offending knob and its value (PR 6 validation style).
TEST(LibrarySim, ConfigValidationRejectsBadKnobs) {
  const ReadTrace trace = UniformTrace(1, 1.0, 400, 1);
  const auto expect_rejected = [&trace](LibrarySimConfig config,
                                        const std::string& needle) {
    try {
      SimulateLibrary(config, trace);
      FAIL() << "expected std::invalid_argument mentioning \"" << needle << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  auto config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  config.library.num_shuttles = 0;
  expect_rejected(config, "num_shuttles");
  config.library.num_shuttles = -4;
  expect_rejected(config, "-4");

  config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  config.library.shelves = 0;
  expect_rejected(config, "shelves");

  config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  config.library.drives_per_read_rack = 0;
  expect_rejected(config, "drives_per_read_rack");

  config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  config.library.steal_threshold_bytes = -1.0;
  expect_rejected(config, "steal_threshold_bytes");

  config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  config.library.congestion_detour_shelves = -1;
  expect_rejected(config, "congestion_detour_shelves");

  config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  config.library.repartition_interval_s = -5.0;
  expect_rejected(config, "repartition_interval_s");

  config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  config.library.repartition_interval_s = 60.0;
  config.library.repartition_ewma_alpha = 0.0;
  expect_rejected(config, "repartition_ewma_alpha");

  config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  config.library.repartition_interval_s = 60.0;
  config.library.repartition_hi = 0.5;  // band inverted: hi <= lo
  expect_rejected(config, "repartition_lo");

  config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  config.write_surge_factor = 0.0;
  expect_rejected(config, "write_surge_factor");

  // A default (all knobs off) config sails through and still simulates.
  config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  EXPECT_EQ(SimulateLibrary(config, trace).requests_completed, 1u);
}

// Bounds that only the command line used to check now live in the validator,
// so every library caller gets them too.
TEST(LibrarySim, ConfigValidationOwnsCommandLineBounds) {
  const ReadTrace trace = UniformTrace(1, 1.0, 400, 1);
  const auto expect_rejected = [&trace](LibrarySimConfig config,
                                        const std::string& needle) {
    try {
      SimulateLibrary(config, trace);
      FAIL() << "expected std::invalid_argument mentioning \"" << needle << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  const auto small = [] {
    return SmallConfig(LibraryConfig::Policy::kPartitioned);
  };

  auto config = small();
  config.scrub.platter_interval_s = 0.0;
  expect_rejected(config, "scrub.platter_interval_s");
  config = small();
  config.scrub.track_sample_fraction = 0.0;
  expect_rejected(config, "scrub.track_sample_fraction");
  config.scrub.track_sample_fraction = 1.5;
  expect_rejected(config, "scrub.track_sample_fraction");

  config = small();
  config.faults.aging.max_sectors_per_event = 0;
  expect_rejected(config, "max_sectors_per_event");

  config = small();
  config.platter_set_info = 0;
  expect_rejected(config, "platter_set_info");
  config = small();
  config.platter_set_redundancy = 0;
  expect_rejected(config, "platter_set_redundancy");

  config = small();
  config.fleet_loss_fraction = 1.0;
  expect_rejected(config, "fleet_loss_fraction");

  config = small();
  config.blackout_partition = -2;
  expect_rejected(config, "blackout_partition");
  config = small();
  config.blackout_partition = 0;
  config.blackout_duration_s = 0.0;
  expect_rejected(config, "blackout_duration_s");
  config = SmallConfig(LibraryConfig::Policy::kShortestPaths);
  config.blackout_partition = 0;
  config.blackout_duration_s = 60.0;
  expect_rejected(config, "partitioned policy");

  config = SmallConfig(LibraryConfig::Policy::kNoShuttles);
  config.library.repartition_interval_s = 600.0;
  expect_rejected(config, "partitioned policy");

  config = small();
  config.library.congestion_aware_routing = true;
  config.library.congestion_detour_shelves = 0;
  expect_rejected(config, "congestion_detour_shelves");

  config = small();
  config.write_platters_per_hour = -1.0;
  expect_rejected(config, "write_platters_per_hour");
  config = small();
  config.write_surge_factor = 2.0;
  config.write_surge_duration_s = 600.0;
  expect_rejected(config, "write_platters_per_hour > 0");
  config.write_platters_per_hour = 1.0;
  config.write_surge_duration_s = 0.0;
  expect_rejected(config, "write_surge_duration_s > 0");
}

TEST(LibrarySim, ExponentialLawsRejectNegativeMeans) {
  EXPECT_THROW(FaultProcess::Exponential(-1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(FaultProcess::Exponential(100.0, -1.0), std::invalid_argument);
  EXPECT_FALSE(FaultProcess::Exponential(0.0, 0.0).enabled());
  EXPECT_THROW(MediaAgingConfig::Exponential(-1.0), std::invalid_argument);
  EXPECT_FALSE(MediaAgingConfig::Exponential(0.0).enabled());
}

TEST(LibrarySim, ScenarioKnobsConserveRequests) {
  auto config = SmallConfig(LibraryConfig::Policy::kPartitioned);
  config.fleet_loss_fraction = 0.25;
  config.blackout_partition = 0;
  config.blackout_start_s = 20.0;
  config.blackout_duration_s = 120.0;
  const auto trace = UniformTrace(200, 2.0, config.num_info_platters, 4 * kMiB);
  const auto result = SimulateLibrary(config, trace);
  // Losing shuttles and blacking out a partition must not lose requests:
  // everything completes or is explicitly failed, nothing is dropped.
  EXPECT_EQ(result.requests_completed + result.requests_failed,
            result.requests_total);
  EXPECT_EQ(result.requests_total, 200u);
}

TEST(LibrarySim, WorkStealingHelpsUnderSkew) {
  auto with_steal = SmallConfig(LibraryConfig::Policy::kPartitioned);
  with_steal.library.steal_threshold_bytes = 64.0 * kMiB;
  auto no_steal = with_steal;
  no_steal.library.work_stealing = false;

  // All requests target platters in a narrow x/shelf region (one partition).
  ReadTrace trace;
  for (int i = 0; i < 240; ++i) {
    ReadRequest r;
    r.id = static_cast<uint64_t>(i + 1);
    r.arrival = i * 0.5;
    r.file_id = r.id;
    r.bytes = 64 * kMiB;
    r.platter = static_cast<uint64_t>(i % 4);  // platters 0..3 cluster together
    trace.push_back(r);
  }
  const auto rs = SimulateLibrary(with_steal, trace);
  const auto rn = SimulateLibrary(no_steal, trace);
  EXPECT_GT(rs.work_steals, 0u);
  EXPECT_LE(rs.completion_times.Percentile(0.999),
            rn.completion_times.Percentile(0.999));
}

TEST(TraceGen, ProfilesMatchPaperRelationships) {
  const uint64_t platters = 1000;
  const auto typical = GenerateTrace(TraceProfile::Typical(3), platters);
  const auto iops = GenerateTrace(TraceProfile::Iops(3), platters);
  const auto volume = GenerateTrace(TraceProfile::Volume(3), platters);

  ASSERT_GT(typical.window_requests, 0u);
  // IOPS: ~10x the requests of Typical at roughly equal volume.
  const double count_ratio = static_cast<double>(iops.window_requests) /
                             static_cast<double>(typical.window_requests);
  EXPECT_GT(count_ratio, 6.0);
  EXPECT_LT(count_ratio, 16.0);

  // Volume: ~25x the bytes, ~5x the requests.
  const double byte_ratio = static_cast<double>(volume.window_bytes) /
                            static_cast<double>(typical.window_bytes);
  EXPECT_GT(byte_ratio, 10.0);
  EXPECT_LT(byte_ratio, 60.0);
  const double volume_count_ratio = static_cast<double>(volume.window_requests) /
                                    static_cast<double>(typical.window_requests);
  EXPECT_GT(volume_count_ratio, 3.0);
  EXPECT_LT(volume_count_ratio, 8.0);
}

TEST(TraceGen, ArrivalsSortedAndBounded) {
  const auto trace = GenerateTrace(TraceProfile::Typical(5), 100);
  double last = 0.0;
  for (const auto& r : trace.requests) {
    EXPECT_GE(r.arrival, last);
    last = r.arrival;
    EXPECT_LT(r.platter, 100u);
    EXPECT_GE(r.bytes, 1u);
  }
  EXPECT_LE(last, TraceProfile::Typical(5).total_duration_s());
}

TEST(TraceGen, ZipfSkewConcentratesLoad) {
  auto profile = TraceProfile::Volume(4);
  profile.zipf_skew = 1.1;
  const auto trace = GenerateTrace(profile, 1000);
  uint64_t hottest = 0;
  std::vector<uint64_t> counts(1000, 0);
  for (const auto& r : trace.requests) {
    hottest = std::max(hottest, ++counts[r.platter]);
  }
  // Zipf 1.1: the hottest platter receives far more than the uniform share.
  const double uniform_share =
      static_cast<double>(trace.requests.size()) / 1000.0;
  EXPECT_GT(static_cast<double>(hottest), 10.0 * uniform_share);
}

TEST(TraceGen, SteadyProfileConstantSizes) {
  const auto trace =
      GenerateTrace(TraceProfile::SteadyPoisson(0.5, 100.0 * kMB, 9), 500);
  ASSERT_FALSE(trace.requests.empty());
  for (const auto& r : trace.requests) {
    EXPECT_EQ(r.bytes, static_cast<uint64_t>(100.0 * kMB));
  }
}

}  // namespace
}  // namespace silica
