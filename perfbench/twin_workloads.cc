// The two simulation workloads:
//
//   library  one LibraryTwin at 128 shuttles (bench_traffic's scaling rule),
//            one day of the bursty IOPS trace with Zipf platter skew, work
//            stealing, congestion routing, repartitioning and dynamic
//            shuttle/drive/rack faults, stepped one simulated hour per
//            RunUntil call. The traced run adds one more twin with media
//            aging, scrub and lazy repair on (the maintenance plane);
//   geo      SimulateFederation over 4 libraries on min(4, nproc) threads:
//            steady Poisson demand with log-normal site skew, 10% geo-routed
//            reads and replication writes; faults and aging off.
//
// Both are deterministic per seed: every repetition must produce the same
// SaveLibrarySimResult / SaveFederationResult bytes (FNV-1a fingerprint), and
// geo's traced run also checks the fingerprint at 1 thread.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "common/state_io.h"
#include "core/library_sim.h"
#include "federation/federation.h"
#include "workload/trace_gen.h"

namespace perfbench {
namespace {

constexpr int kLibraryShuttles = 128;
constexpr double kLibraryWindowS = 24.0 * 3600.0;
constexpr double kLibraryZipfSkew = 0.3;
constexpr double kSliceS = 3600.0;
// The day of trace and the twin's own randomness (fault schedule, mechanics)
// are fixed scenario seeds; --seed jitters every arrival by up to
// kArrivalJitterS. Drawn per seed, the IOPS burst envelope moves p50 by half
// and the fault schedule moves host time per request by up to 2x, so every
// number would be a property of the seed.
constexpr uint64_t kLibraryTraceSeed = 42;
constexpr uint64_t kLibraryTwinSeed = 227;
constexpr double kArrivalJitterS = 1.0;

constexpr int kGeoLibraries = 4;
// Seeds the federation's placement and per-site demand skew, which are part
// of the workload's definition; --seed varies the arrivals on top of them.
// (Which site draws the heaviest demand sets the epoch critical path, so a
// per-seed skew would make host throughput a property of the seed.)
constexpr uint64_t kGeoPlacementSeed = 42;
constexpr double kGeoRatePerS = 0.5;
constexpr double kGeoWindowS = 12.0 * 3600.0;

uint64_t Fingerprint(const silica::LibrarySimResult& result) {
  silica::StateWriter w;
  silica::SaveLibrarySimResult(w, result);
  return Fnv1a(w.bytes());
}

uint64_t Fingerprint(const silica::FederationResult& result) {
  silica::StateWriter w;
  silica::SaveFederationResult(w, result);
  return Fnv1a(w.bytes());
}

// bench_traffic's scaling rule: one partition per shuttle, read drives and
// storage racks grown with the fleet, 40 information platters per shuttle.
silica::LibrarySimConfig LibraryConfig() {
  silica::LibrarySimConfig config;
  auto& lib = config.library;
  lib.policy = silica::LibraryConfig::Policy::kPartitioned;
  lib.num_shuttles = kLibraryShuttles;
  lib.drives_per_read_rack = std::max(5, (kLibraryShuttles + 1) / 2);
  const uint64_t platters = 40ull * kLibraryShuttles;
  const uint64_t with_redundancy = platters + (platters + 15) / 16 * 3;
  const auto per_rack = static_cast<uint64_t>(lib.shelves * lib.slots_per_shelf);
  lib.storage_racks =
      std::max(7, static_cast<int>((with_redundancy + per_rack - 1) / per_rack));
  lib.work_stealing = true;
  lib.congestion_aware_routing = true;
  lib.repartition_interval_s = 600.0;
  config.num_info_platters = platters;
  config.seed = kLibraryTwinSeed;

  // The README fault recipe, injected for the whole trace. Media aging,
  // scrub and lazy repair stay off here (see MaintenanceConfig).
  config.faults.shuttle = silica::FaultProcess::Exponential(1080000.0, 1800.0);
  config.faults.drive = silica::FaultProcess::Exponential(2592000.0, 7200.0);
  config.faults.rack = silica::FaultProcess::Exponential(7776000.0, 28800.0);
  return config;
}

// LibraryConfig plus the README's maintenance recipe: one media damage event
// per platter every two days, every platter scrubbed every 6 h at 5% of its
// tracks, on-platter repairs queued and drained under 16 MiB/s. With it on, a
// one-second arrival jitter moved p50 by half and host time per request by
// 2x within one simulated day, so it has no end-to-end metric; the traced run
// runs it once for the maint.* metrics and its ledger gates.
silica::LibrarySimConfig MaintenanceConfig() {
  silica::LibrarySimConfig config = LibraryConfig();
  config.faults.aging = silica::MediaAgingConfig::Exponential(2.0 * 24 * 3600);
  config.scrub.enabled = true;
  config.scrub.platter_interval_s = 6.0 * 3600;
  config.scrub.track_sample_fraction = 0.05;
  config.lazy_repair.enabled = true;
  config.lazy_repair.bandwidth_bytes_per_s = 16.0 * 1024 * 1024;
  return config;
}

silica::TraceProfile LibraryProfile(uint64_t seed) {
  silica::TraceProfile profile = silica::TraceProfile::Iops(seed);
  profile.zipf_skew = kLibraryZipfSkew;
  profile.window_s = kLibraryWindowS;
  return profile;
}

// Delays every arrival by a seeded uniform [0, kArrivalJitterS) and restores
// arrival order.
void JitterArrivals(silica::ReadTrace& trace, uint64_t seed) {
  silica::Rng rng(seed * 0x9e3779b97f4a7c15ull + 31);
  for (silica::ReadRequest& r : trace) {
    r.arrival += rng.NextDouble() * kArrivalJitterS;
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const silica::ReadRequest& a, const silica::ReadRequest& b) {
                     return a.arrival < b.arrival;
                   });
}

// Twin-side layer numbers, summed over the given results.
void ReportTwinResultLayers(const std::vector<const silica::LibrarySimResult*>& results,
                            Report& report) {
  double events = 0, total = 0, steals = 0, repartitions = 0, travels = 0,
         congestion_wait = 0, expected_travel = 0, detours = 0, busy = 0,
         switching = 0, drive_total = 0, aborted = 0, amplified = 0,
         recovery_reads = 0;
  silica::PercentileTracker ttlb;
  for (const auto* r : results) {
    events += static_cast<double>(r->events_executed);
    total += static_cast<double>(r->requests_total);
    steals += static_cast<double>(r->work_steals);
    repartitions += static_cast<double>(r->repartitions);
    travels += static_cast<double>(r->travels);
    congestion_wait += r->congestion_wait_total;
    expected_travel += r->expected_travel_total;
    detours += static_cast<double>(r->congestion_detours);
    busy += r->drive_read_seconds + r->drive_verify_seconds;
    switching += r->drive_switch_seconds;
    drive_total += r->drive_read_seconds + r->drive_verify_seconds +
                   r->drive_switch_seconds + r->drive_idle_seconds;
    aborted += static_cast<double>(r->faults.aborted_shuttle_jobs);
    amplified += static_cast<double>(r->amplified_requests);
    recovery_reads += static_cast<double>(r->recovery_reads);
    ttlb.Merge(r->completion_times);
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  report.Layer("twin.events_per_request", ratio(events, total), "ratio");
  report.Layer("twin.ttlb_p999_s", ttlb.Percentile(0.999), "s");
  report.Layer("sched.work_steals", steals, "count");
  report.Layer("sched.repartitions", repartitions, "count");
  report.Layer("rails.travels_per_request", ratio(travels, total), "ratio");
  report.Layer("rails.congestion_overhead_frac",
               ratio(congestion_wait, expected_travel), "ratio");
  report.Layer("rails.congestion_detours", detours, "count");
  report.Layer("drive.utilization", ratio(busy, drive_total), "ratio");
  report.Layer("drive.switch_frac", ratio(switching, drive_total), "ratio");
  report.Layer("faults.aborted_jobs", aborted, "count");
  report.Layer("faults.amplified_frac", ratio(amplified, total), "ratio");
  report.Layer("faults.recovery_reads", recovery_reads, "count");
}

void CheckTwinLedgers(const silica::LibrarySimResult& r, Report& report) {
  if (r.requests_completed + r.requests_failed != r.requests_total) {
    report.Violation("twin completed + failed != total");
  }
  if (!r.scrub.ledger.Conserves()) {
    report.Violation("repair ledger detected != sum(repaired) + unrecoverable");
  }
  // Entries a tier-3 rebuild evicts from the queue leave it without being
  // drained or settled (the ledger counts their sectors), so admitted may
  // exceed the sum; it may never fall below it.
  if (r.scrub.lazy_admitted < r.scrub.lazy_drained + r.scrub.lazy_settled) {
    report.Violation("lazy repair drained + settled > admitted");
  }
}

// Rates are medians over repetitions, so one repetition slowed by a noisy
// neighbour does not move them.
void ReportTwinEndToEnd(const std::vector<double>& setup_s,
                        const std::vector<double>& ops_per_s,
                        const std::vector<double>& user_mb_per_s, uint64_t resolved,
                        uint64_t failed, const silica::PercentileTracker& ttlb,
                        int reps, Report& report) {
  report.attempted += resolved;
  report.failed += failed;
  report.E2e("setup_s", Quantile(setup_s, 0.5), "s");
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  report.E2e("ok_frac",
             1.0 - static_cast<double>(failed) /
                       static_cast<double>(std::max<uint64_t>(1, resolved)),
             "ratio");
  report.E2e("ops_per_s", Quantile(ops_per_s, 0.5), "ops/s");
  report.E2e("user_mb_per_s", Quantile(user_mb_per_s, 0.5), "MB/s");
  report.E2e("sim_ttlb_p50_s", ttlb.Percentile(0.5), "s");
  report.E2e("sim_ttlb_p99_s", ttlb.Percentile(0.99), "s");
  report.notes.emplace_back("reps", std::to_string(reps));
  report.notes.emplace_back("rep_ops_per_s", JoinValues(ops_per_s));
  report.notes.emplace_back("ttlb_samples", std::to_string(ttlb.count()));
}

// Span names of one kind of twin run, so the maintenance twin's slices stay
// apart from the library twin's.
struct TwinSpans {
  const char* construct;
  const char* prologue;
  const char* run_until;
  const char* finish;
};
constexpr TwinSpans kLibrarySpans = {"twin.construct", "twin.Prologue",
                                     "twin.RunUntil", "twin.Finish"};
constexpr TwinSpans kMaintenanceSpans = {"maint.construct", "maint.Prologue",
                                         "maint.RunUntil", "maint.Finish"};

struct TwinRun {
  silica::LibrarySimResult result;
  double setup_s = 0.0;  // trace generation, twin construction, Prologue
  double timed_s = 0.0;  // RunUntil slices and Finish
  double trace_bytes = 0.0;
};

// Generates the day of trace, then builds one twin and runs it to the end in
// one-hour RunUntil slices.
TwinRun RunTwin(const silica::LibrarySimConfig& config, uint64_t seed,
                const TwinSpans& names, SpanRecorder& spans) {
  TwinRun run;
  const double setup_start = Now();
  silica::GeneratedTrace trace;
  {
    ScopedSpan s(spans, "workload.gen");
    trace = silica::GenerateTrace(LibraryProfile(kLibraryTraceSeed),
                                  config.num_info_platters);
    JitterArrivals(trace.requests, seed);
  }
  silica::LibrarySimConfig run_config = config;
  run_config.measure_start = trace.measure_start;
  run_config.measure_end = trace.measure_end;
  run_config.faults.inject_until_s = trace.measure_end;
  for (const silica::ReadRequest& r : trace.requests) {
    run.trace_bytes += static_cast<double>(r.bytes);
  }
  std::unique_ptr<silica::LibraryTwin> twin;
  {
    ScopedSpan s(spans, names.construct);
    twin = std::make_unique<silica::LibraryTwin>(run_config,
                                                 std::move(trace.requests));
  }
  {
    ScopedSpan s(spans, names.prologue);
    twin->Prologue();
  }
  run.setup_s = Now() - setup_start;

  const double t0 = Now();
  for (double until = kSliceS; !twin->Idle(); until += kSliceS) {
    ScopedSpan s(spans, names.run_until);
    twin->RunUntil(until);
  }
  {
    ScopedSpan s(spans, names.finish);
    run.result = twin->Finish();
  }
  run.timed_s = std::max(Now() - t0, 1e-9);
  return run;
}

// The maintenance twin's layer numbers and gates.
void RunMaintenance(const Options& options, SpanRecorder& spans, Report& report) {
  const TwinRun run = RunTwin(MaintenanceConfig(), options.seed, kMaintenanceSpans, spans);
  const silica::LibrarySimResult& r = run.result;
  CheckTwinLedgers(r, report);
  if (r.scrub.ledger.detected == 0 || r.scrub.lazy_admitted == 0) {
    report.Violation("maintenance twin detected or queued no damage");
  }
  const double drive_total = r.drive_read_seconds + r.drive_verify_seconds +
                             r.drive_switch_seconds + r.drive_idle_seconds;
  report.Layer("maint.run_s", run.timed_s, "s");
  report.Layer("maint.scrub_drive_frac",
               drive_total > 0.0 ? r.scrub.scrub_read_seconds / drive_total : 0.0,
               "ratio");
  report.Layer("maint.lazy_drained_mb",
               static_cast<double>(r.scrub.lazy_drained_bytes) / 1e6, "MB");
  report.Layer("maint.lazy_peak_queue", static_cast<double>(r.scrub.lazy_peak_queue),
               "count");
  report.Layer("maint.rebuilds", static_cast<double>(r.scrub.rebuilds_completed),
               "count");
}

}  // namespace

void RunLibrary(const Options& options, SpanRecorder& spans, Report& report) {
  RepTimer timer;
  timer.target_s = options.seconds;
  std::vector<double> setup_s;
  std::vector<double> ops_per_s, user_mb_per_s;
  uint64_t resolved = 0, failed = 0;
  uint64_t first_fingerprint = 0;
  silica::LibrarySimResult first;
  const silica::LibrarySimConfig config = LibraryConfig();
  while (timer.more()) {
    TwinRun run = RunTwin(config, options.seed, kLibrarySpans, spans);
    setup_s.push_back(run.setup_s);
    timer.timed_s += run.timed_s;
    ++timer.reps;

    CheckTwinLedgers(run.result, report);
    resolved += run.result.requests_total;
    failed += run.result.requests_failed;
    ops_per_s.push_back(static_cast<double>(run.result.requests_total) / run.timed_s);
    user_mb_per_s.push_back(run.trace_bytes / 1e6 / run.timed_s);
    const uint64_t fingerprint = Fingerprint(run.result);
    if (timer.reps == 1) {
      first_fingerprint = fingerprint;
      first = std::move(run.result);
    } else if (fingerprint != first_fingerprint) {
      report.Violation("library result differs between identical repetitions");
    }
  }
  ReportTwinEndToEnd(setup_s, ops_per_s, user_mb_per_s, resolved, failed,
                     first.completion_times, timer.reps, report);
  if (spans.enabled()) {
    const double run_s = spans.TotalSelf("twin.RunUntil") +
                         spans.TotalSelf("twin.Finish");
    report.Layer("workload.gen_s", spans.TotalSelf("workload.gen") / timer.reps,
                 "s");
    report.Layer("twin.prologue_s", Quantile(spans.SelfTimesOf("twin.Prologue"), 0.5),
                 "s");
    report.Layer("twin.events_per_s",
                 static_cast<double>(first.events_executed) * timer.reps /
                     std::max(run_s, 1e-9),
                 "1/s");
    const auto slices = spans.SelfTimesOf("twin.RunUntil");
    report.Layer("twin.hour_wall_ms_p50", Quantile(slices, 0.5) * 1e3, "ms");
    report.Layer("twin.hour_wall_ms_max", Quantile(slices, 1.0) * 1e3, "ms");
    report.Layer("twin.finish_s", Quantile(spans.SelfTimesOf("twin.Finish"), 0.5),
                 "s");
    ReportTwinResultLayers({&first}, report);
    RunMaintenance(options, spans, report);
  }
}

namespace {

silica::FederationConfig GeoConfig(uint64_t seed, int threads) {
  silica::FederationConfig fc;
  fc.library.library.policy = silica::LibraryConfig::Policy::kPartitioned;
  fc.library.library.num_shuttles = 8;
  fc.library.num_info_platters = 600;
  fc.library.library.storage_racks = 7;
  fc.num_libraries = kGeoLibraries;
  fc.replication = 2;
  fc.tenants = 64;
  fc.demand_skew_sigma = 0.3;
  fc.profile = silica::TraceProfile::SteadyPoisson(kGeoRatePerS,
                                                   256.0 * 1024 * 1024, seed);
  fc.profile.window_s = kGeoWindowS;
  fc.profile.warmup_s = 0.5 * 3600.0;
  fc.profile.cooldown_s = 0.5 * 3600.0;
  fc.library.measure_start = fc.profile.warmup_s;
  fc.library.measure_end = fc.profile.warmup_s + fc.profile.window_s;
  fc.geo_read_fraction = 0.1;
  // bench_federation's inter-site latency; the lookahead (one epoch) is
  // base + hop = 35 s, so a run crosses over a thousand epoch barriers.
  fc.base_latency_s = 30.0;
  fc.hop_latency_s = 5.0;
  // Replication writes ride each twin's explicit write pipeline.
  fc.library.write_platters_per_hour = 2.0;
  fc.library.write_until = fc.library.measure_end;
  fc.replication_writes_per_hour = 1.0;
  fc.replication_until_s = fc.library.measure_end;
  fc.threads = threads;
  fc.seed = kGeoPlacementSeed;
  return fc;
}

void CheckFederation(const silica::FederationResult& r, Report& report) {
  if (r.messages_sent !=
      r.messages_delivered + r.messages_dropped + r.messages_in_flight) {
    report.Violation("federation sent != delivered + dropped + in_flight");
  }
  if (r.geo_routed + r.geo_unroutable != r.geo_reads) {
    report.Violation("federation geo routed + unroutable != geo reads");
  }
  for (const auto& lib : r.libraries) {
    CheckTwinLedgers(lib, report);
  }
}

}  // namespace

void RunGeo(const Options& options, SpanRecorder& spans, Report& report) {
  RepTimer timer;
  timer.target_s = options.seconds;
  std::vector<double> setup_s;
  std::vector<double> walls, ops_per_s, user_mb_per_s;
  uint64_t resolved = 0, failed = 0;
  uint64_t first_fingerprint = 0;
  silica::FederationResult first;
  const silica::FederationConfig config = GeoConfig(options.seed, options.threads);
  while (timer.more()) {
    const double setup_start = Now();
    double bytes = 0.0;
    {
      // The inputs SimulateFederation derives from the config: placement,
      // per-site traces and geo reads. The call takes only the config and
      // builds them again inside the timed phase, so set-up times this build
      // (whose bytes give user_mb_per_s) and ops_per_s counts it once more.
      ScopedSpan s(spans, "workload.gen");
      const silica::FederationWorkload workload =
          silica::BuildFederationWorkload(config);
      for (const auto& local : workload.workload.local) {
        for (const auto& r : local) {
          bytes += static_cast<double>(r.bytes);
        }
      }
      for (const auto& g : workload.workload.geo) {
        bytes += static_cast<double>(g.request.bytes);
      }
    }
    setup_s.push_back(Now() - setup_start);

    const double t0 = Now();
    silica::FederationResult result;
    {
      ScopedSpan s(spans, "federation.SimulateFederation");
      result = silica::SimulateFederation(config);
    }
    const double wall = std::max(Now() - t0, 1e-9);
    walls.push_back(wall);
    timer.timed_s += wall;
    ++timer.reps;

    CheckFederation(result, report);
    uint64_t requests = 0;
    for (const auto& lib : result.libraries) {
      requests += lib.requests_total;
      failed += lib.requests_failed;
    }
    resolved += requests;
    failed += result.geo_unroutable + result.geo_failed;
    ops_per_s.push_back(static_cast<double>(requests) / wall);
    user_mb_per_s.push_back(bytes / 1e6 / wall);
    const uint64_t fingerprint = Fingerprint(result);
    if (timer.reps == 1) {
      first_fingerprint = fingerprint;
      first = std::move(result);
    } else if (fingerprint != first_fingerprint) {
      report.Violation("federation result differs between identical repetitions");
    }
  }
  silica::PercentileTracker ttlb;
  for (const auto& lib : first.libraries) {
    ttlb.Merge(lib.completion_times);
  }
  ReportTwinEndToEnd(setup_s, ops_per_s, user_mb_per_s, resolved, failed, ttlb,
                     timer.reps, report);
  if (!spans.enabled()) {
    return;
  }
  // Serial reference: same config on one thread, traced run only.
  silica::FederationConfig serial_config = config;
  serial_config.threads = 1;
  const double serial_start = Now();
  silica::FederationResult serial;
  {
    ScopedSpan s(spans, "federation.SimulateFederation.serial");
    serial = silica::SimulateFederation(serial_config);
  }
  const double serial_s = Now() - serial_start;
  if (Fingerprint(serial) != first_fingerprint) {
    report.Violation("federation result differs between 1 and N threads");
  }
  const double threaded_s = Quantile(walls, 0.5);
  report.Layer("workload.gen_s", spans.TotalSelf("workload.gen") / timer.reps,
               "s");
  report.Layer("fed.epochs", static_cast<double>(first.epochs), "count");
  report.Layer("fed.messages_per_epoch",
               static_cast<double>(first.messages_sent) /
                   static_cast<double>(std::max<uint64_t>(1, first.epochs)),
               "ratio");
  report.Layer("fed.serial_s", serial_s, "s");
  if (options.nproc >= 2) {
    report.Layer("fed.parallel_efficiency",
                 serial_s / (options.threads * std::max(threaded_s, 1e-9)), "ratio");
  } else {
    report.notes.emplace_back("fed.parallel_efficiency", "unmeasured");
  }
  report.Layer("fed.geo_ttlb_p999_s", first.geo_completion_times.Percentile(0.999),
               "s");
  report.Layer("twin.events_per_s",
               static_cast<double>(first.events_executed) /
                   std::max(threaded_s, 1e-9),
               "1/s");
  std::vector<const silica::LibrarySimResult*> libs;
  for (const auto& lib : first.libraries) {
    libs.push_back(&lib);
  }
  ReportTwinResultLayers(libs, report);
}

}  // namespace perfbench
