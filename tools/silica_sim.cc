// silica_sim: run the library digital twin from the command line.
//
// Three modes, chosen by the flags given: the twin (the default), a federation
// of twins (--federation=N) and the set-level MTTDL estimator (--mttdl=...).
// Each mode accepts only the flags it reads, and prints its own flag table:
//   silica_sim --help
//   silica_sim --federation=1 --help
//   silica_sim --mttdl=split --help
//
// The twin prints a one-screen report: completion percentiles, drive split,
// shuttle stats. With --json the report is a single machine-readable JSON object
// instead (for bench trajectory tracking; see tools/compare_runs.py).
// --metrics-out snapshots the metrics registry (Prometheus text, or JSON when the
// path ends in .json); --trace-out writes a Chrome/Perfetto-loadable trace.
//
// Exit status: 0 ok, 1 a checkpoint divergence or an unwritable output file,
// 2 a usage or config error.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/state_io.h"
#include "common/units.h"
#include "core/library_sim.h"
#include "core/sweep.h"
#include "ecc/simd/gf256_kernels.h"
#include "federation/federation.h"
#include "sim/durability_model.h"
#include "telemetry/telemetry.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace {

using namespace silica;

using ull = unsigned long long;  // printf's %llu

constexpr double kSecondsPerYear = 365.25 * 24.0 * 3600.0;

// --policy's choices, in LibraryConfig::Policy order.
const std::vector<std::string> kPolicies = {"silica", "sp", "ns"};

// The per-library twin template of the twin and the federation modes, and the
// flags that fill it.
struct TwinTemplate {
  std::string profile = "iops";
  std::string policy = "silica";
  double zipf = 0.0;
  LibrarySimConfig config;

  explicit TwinTemplate(FlagSet& flags) {
    flags.Enum("profile", &profile, TraceProfile::Names(), "read-trace profile")
        .Uint("seed", &config.seed, "random seed")
        .Double("zipf", &zipf, "Zipf skew of platter popularity")
        .Enum("policy", &policy, kPolicies, "partitions, shortest paths, or no shuttles")
        .Int("shuttles", &config.library.num_shuttles, "shuttles per library")
        .Double("mbps", &config.library.drive_throughput_mbps, "read-drive throughput, MB/s")
        .Uint("platters", &config.num_info_platters, "information platters per library")
        .Double("write-rate", &config.write_platters_per_hour,
                "explicit write pipeline: platters ejected per hour (0 = off)");
  }

  TraceProfile Profile(uint64_t seed) const {
    TraceProfile p = TraceProfile::Named(profile, seed);
    p.zipf_skew = zipf;
    return p;
  }

  LibrarySimConfig Config() const {
    LibrarySimConfig c = config;
    c.library.policy = static_cast<LibraryConfig::Policy>(
        std::find(kPolicies.begin(), kPolicies.end(), policy) - kPolicies.begin());
    return c;
  }
};

// Standalone rare-event MTTDL estimation on the set-level durability model
// (no library twin): importance splitting, or brute-force Monte Carlo with
// --mttdl=mc. Always prints one JSON object.
int RunMttdl(const CommandLine& line) {
  std::string mode = "split";
  DurabilityConfig config;
  double horizon_years = config.horizon_s / kSecondsPerYear;
  int roots = 200;
  int split_k = 8;
  FlagSet flags("silica_sim --mttdl",
                "Rare-event MTTDL of the set-level durability model (no twin); prints one JSON "
                "object.");
  flags.Enum("mttdl", &mode, {"split", "mc"}, "importance splitting, or brute-force Monte Carlo")
      .Int("sets", &config.num_sets, "platter sets")
      .Int("set-n", &config.n, "platters per set")
      .Int("set-k", &config.k, "data platters per set")
      .Double("platter-bytes", &config.platter_bytes, "bytes per platter")
      .Double("fail-rate", &config.fail_rate_per_platter_year, "failures per platter-year")
      .Double("scrub-interval", &config.scrub_interval_s, "scrub cycle, s")
      .Double("repair-bandwidth", &config.repair_bandwidth_bytes_per_s, "repair bytes per second")
      .Bool("lazy", &config.lazy, "one global repair budget instead of eager per-repair bandwidth")
      .Double("horizon-years", &horizon_years, "mission time, years")
      .Uint("seed", &config.seed, "random seed")
      .Int("roots", &roots, "independent root trajectories")
      .Int("split-k", &split_k, "splitting factor (split mode)");
  if (!flags.Parse(line)) {
    return 0;
  }
  config.horizon_s = horizon_years * kSecondsPerYear;
  if (mode == "mc") {
    split_k = 1;
  }
  const MttdlEstimate estimate = EstimateMttdl(config, roots, split_k);
  std::printf("%s\n", MttdlEstimateToJson(config, estimate, split_k, 2).c_str());
  return 0;
}

// Writes a metrics snapshot: JSON when the path ends in .json, else Prometheus
// text. False when the file could not be written.
bool WriteMetrics(const std::string& path, const MetricsRegistry& metrics) {
  std::ofstream out(path);
  out << (path.ends_with(".json") ? metrics.ToJson() : metrics.ToPrometheusText());
  return static_cast<bool>(out);
}

// Multi-library federation mode (--federation=N): N digital twins advance in
// lookahead-sized epochs under conservative synchronization, exchanging
// geo-routed reads, replication writes, and cross-library repair transfers at
// the barrier. Deterministic for every --federation-threads value.
int RunFederation(const CommandLine& line) {
  FederationConfig config;
  bool json = false;
  std::string metrics_out;
  FlagSet flags("silica_sim --federation",
                "N library twins under conservative epoch sync, exchanging geo reads, replication "
                "writes and repair transfers.");
  flags.Int("federation", &config.num_libraries, "libraries")
      .Int("federation-threads", &config.threads,
           "libraries simulated in parallel per epoch; output is identical for every value")
      .Int("replication", &config.replication, "replica-set width")
      .Int("tenants", &config.tenants, "tenants")
      .Double("demand-skew", &config.demand_skew_sigma, "log-normal sigma of per-site demand")
      .Double("geo-reads", &config.geo_read_fraction,
              "fraction of reads routed to the least-loaded replica")
      .Double("base-latency", &config.base_latency_s,
              "inter-site latency base, s; the minimum pair latency is the lookahead")
      .Double("hop-latency", &config.hop_latency_s, "inter-site latency per ring hop, s")
      .Int("fed-blackout-library", &config.blackout_library,
           "library cut off from messages and routing for a window (-1 = none)")
      .Double("fed-blackout-start", &config.blackout_start_s, "blackout start, s")
      .Requires("fed-blackout-library")
      .Double("fed-blackout-duration", &config.blackout_duration_s, "blackout length, s")
      .Requires("fed-blackout-library")
      .Int("evacuate-library", &config.evacuate_library,
           "re-home this library's tenants' geo reads (-1 = none)")
      .Double("evacuate-at", &config.evacuate_at_s, "evacuation time, s")
      .Requires("evacuate-library")
      .Double("replicate-rate", &config.replication_writes_per_hour,
              "cross-site replication writes per library per hour")
      .Double("replicate-until", &config.replication_until_s, "last replication write, s")
      .Requires("replicate-rate");
  TwinTemplate twin(flags);
  flags.Bool("json", &json, "machine-readable report on stdout")
      .String("metrics-out", &metrics_out, "metrics file (.json -> JSON, else Prometheus text)");
  if (!flags.Parse(line)) {
    return 0;
  }
  config.seed = twin.config.seed;
  config.profile = twin.Profile(config.seed);
  config.library = twin.Config();
  config.library.measure_start = config.profile.warmup_s;
  config.library.measure_end = config.profile.warmup_s + config.profile.window_s;

  std::unique_ptr<Telemetry> telemetry;
  if (!metrics_out.empty()) {
    telemetry = std::make_unique<Telemetry>();
    config.telemetry = telemetry.get();
  }
  const FederationResult result = SimulateFederation(config);

  if (telemetry != nullptr && !WriteMetrics(metrics_out, telemetry->metrics)) {
    std::fprintf(stderr, "error: could not write %s\n", metrics_out.c_str());
    return 1;
  }

  uint64_t requests_total = 0, requests_completed = 0, requests_failed = 0;
  for (const LibrarySimResult& lib : result.libraries) {
    requests_total += lib.requests_total;
    requests_completed += lib.requests_completed;
    requests_failed += lib.requests_failed;
  }
  if (json) {
    std::printf(
        "{\"federation\": {\"libraries\": %d, \"threads\": %d, "
        "\"replication\": %d, \"tenants\": %d, \"demand_skew\": %g, "
        "\"geo_read_fraction\": %g, \"lookahead_s\": %g, \"seed\": %llu}, "
        "\"epochs\": %llu, \"events_executed\": %llu, \"makespan_s\": %g, "
        "\"wall_seconds\": %g, \"requests\": {\"total\": %llu, \"completed\": "
        "%llu, \"failed\": %llu}, \"messages\": {\"sent\": %llu, \"delivered\": "
        "%llu, \"dropped\": %llu, \"in_flight\": %llu, \"bytes\": %llu}, "
        "\"geo\": {\"reads\": %llu, \"routed\": %llu, \"unroutable\": %llu, "
        "\"completed\": %llu, \"failed\": %llu, \"p50_s\": %g, \"p999_s\": %g}, "
        "\"repair\": {\"transfers\": %llu, \"bytes\": %llu}, "
        "\"replication_writes\": %llu}\n",
        config.num_libraries, config.threads, config.replication,
        config.tenants, config.demand_skew_sigma, config.geo_read_fraction,
        result.lookahead_s, ull(config.seed),
        ull(result.epochs), ull(result.events_executed),
        result.makespan, result.wall_seconds,
        ull(requests_total), ull(requests_completed), ull(requests_failed),
        ull(result.messages_sent), ull(result.messages_delivered),
        ull(result.messages_dropped), ull(result.messages_in_flight),
        ull(result.bytes_sent), ull(result.geo_reads), ull(result.geo_routed),
        ull(result.geo_unroutable), ull(result.geo_completed),
        ull(result.geo_failed), result.geo_completion_times.Percentile(0.5),
        result.geo_completion_times.Percentile(0.999),
        ull(result.repair_transfers), ull(result.repair_bytes),
        ull(result.replication_writes));
    return 0;
  }
  std::printf("federation: %d libraries, %d threads, lookahead %g s\n",
              config.num_libraries, config.threads, result.lookahead_s);
  std::printf("epochs %llu  events %llu  makespan %s  wall %.3f s\n",
              ull(result.epochs), ull(result.events_executed),
              FormatDuration(result.makespan).c_str(), result.wall_seconds);
  std::printf("requests: %llu total, %llu completed, %llu failed\n",
              ull(requests_total), ull(requests_completed),
              ull(requests_failed));
  std::printf("messages: %llu sent = %llu delivered + %llu dropped + %llu "
              "in flight (%s)\n",
              ull(result.messages_sent), ull(result.messages_delivered),
              ull(result.messages_dropped), ull(result.messages_in_flight),
              FormatBytes(static_cast<double>(result.bytes_sent)).c_str());
  std::printf("geo reads: %llu issued, %llu routed, %llu unroutable, %llu "
              "completed, %llu failed; p50 %s, p99.9 %s\n",
              ull(result.geo_reads), ull(result.geo_routed),
              ull(result.geo_unroutable), ull(result.geo_completed),
              ull(result.geo_failed),
              FormatDuration(result.geo_completion_times.Percentile(0.5)).c_str(),
              FormatDuration(result.geo_completion_times.Percentile(0.999))
                  .c_str());
  std::printf("repair: %llu cross-library transfers (%s); replication writes "
              "%llu\n",
              ull(result.repair_transfers),
              FormatBytes(static_cast<double>(result.repair_bytes)).c_str(),
              ull(result.replication_writes));
  for (size_t i = 0; i < result.libraries.size(); ++i) {
    const LibrarySimResult& lib = result.libraries[i];
    std::printf("  library %zu: %llu requests (%llu injected), %llu events, "
                "p99.9 %s\n",
                i, ull(lib.requests_total),
                ull(lib.federation.injected_arrivals), ull(lib.events_executed),
                FormatDuration(lib.completion_times.Percentile(0.999)).c_str());
  }
  return 0;
}

void PrintJsonReport(const LibrarySimResult& r,
                     const LibrarySimConfig& config,
                     const std::string& profile, const std::string& policy,
                     uint64_t window_bytes, double slo_s, int threads) {
  const auto& ct = r.completion_times;
  std::printf("{\n");
  std::printf(
      "  \"config\": {\"profile\": \"%s\", \"policy\": \"%s\", \"shuttles\": %d, "
      "\"mbps\": %g, \"platters\": %llu, \"seed\": %llu, \"unavailable\": %g, "
      "\"work_stealing\": %s, \"grouping\": %s, \"fast_switching\": %s, "
      "\"threads\": %d},\n",
      profile.c_str(), policy.c_str(), config.library.num_shuttles,
      config.library.drive_throughput_mbps, ull(config.num_info_platters),
      ull(config.seed), config.unavailable_fraction,
      config.library.work_stealing ? "true" : "false",
      config.library.group_platter_requests ? "true" : "false",
      config.library.fast_switching ? "true" : "false", threads);
  std::printf(
      "  \"requests\": {\"total\": %llu, \"completed\": %llu, "
      "\"recovery_reads\": %llu, \"window_bytes\": %llu},\n",
      ull(r.requests_total), ull(r.requests_completed), ull(r.recovery_reads),
      ull(window_bytes));
  std::printf(
      "  \"completion_seconds\": {\"p50\": %.6g, \"p90\": %.6g, \"p99\": %.6g, "
      "\"p999\": %.6g, \"max\": %.6g, \"mean\": %.6g},\n",
      ct.Percentile(0.5), ct.Percentile(0.9), ct.Percentile(0.99),
      ct.Percentile(0.999), ct.max(), ct.mean());
  std::printf(
      "  \"drives\": {\"utilization\": %.6g, \"read_fraction\": %.6g, "
      "\"verify_fraction\": %.6g, \"read_seconds\": %.6g, \"verify_seconds\": "
      "%.6g, \"switch_seconds\": %.6g, \"idle_seconds\": %.6g},\n",
      r.DriveUtilization(), r.DriveReadFraction(), r.DriveVerifyFraction(),
      r.drive_read_seconds, r.drive_verify_seconds, r.drive_switch_seconds,
      r.drive_idle_seconds);
  std::printf(
      "  \"shuttles\": {\"travels\": %llu, \"travel_mean_s\": %.6g, "
      "\"travel_p999_s\": %.6g, \"congestion_overhead_fraction\": %.6g, "
      "\"congestion_stops\": %llu, \"energy_per_platter_op\": %.6g, "
      "\"work_steals\": %llu, \"recharges\": %llu},\n",
      ull(r.travels), r.travel_times.mean(),
      r.travel_times.Percentile(0.999), r.CongestionOverheadFraction(),
      ull(r.congestion_stops), r.EnergyPerPlatterOperation(),
      ull(r.work_steals), ull(r.shuttle_recharges));
  if (config.faults.aging.enabled() || config.scrub.enabled) {
    const auto& s = r.scrub;
    std::printf(
        "  \"aging\": {\"enabled\": %s, \"events\": %llu, \"latent_sectors\": "
        "%llu},\n",
        config.faults.aging.enabled() ? "true" : "false",
        ull(s.aging_events), ull(s.latent_sectors));
    std::printf(
        "  \"scrub\": {\"enabled\": %s, \"interval_s\": %.6g, \"sample\": %.6g, "
        "\"passes\": %llu, \"detections\": %llu, "
        "\"read_detections\": %llu, \"scrub_read_seconds\": %.6g, "
        "\"repair_read_seconds\": %.6g},\n",
        config.scrub.enabled ? "true" : "false", config.scrub.platter_interval_s,
        config.scrub.track_sample_fraction,
        ull(s.scrubs_completed), ull(s.scrub_detections),
        ull(s.read_detections), s.scrub_read_seconds, s.repair_read_seconds);
    std::printf(
        "  \"repair\": {\"detected\": %llu, \"ldpc_retry\": %llu, "
        "\"track_nc\": %llu, \"large_group\": %llu, \"platter_set\": %llu, "
        "\"unrecoverable\": %llu, \"bytes_lost\": %llu, \"rebuilds_started\": "
        "%llu, \"rebuilds_completed\": %llu, \"rebuild_retries\": %llu, "
        "\"rebuild_reads\": %llu, \"conserves\": %s},\n",
        ull(s.ledger.detected), ull(s.ledger.repaired[0]),
        ull(s.ledger.repaired[1]), ull(s.ledger.repaired[2]),
        ull(s.ledger.repaired[3]),
        ull(s.ledger.unrecoverable), ull(s.ledger.bytes_lost),
        ull(s.rebuilds_started), ull(s.rebuilds_completed),
        ull(s.rebuild_retries), ull(s.rebuild_reads),
        s.ledger.Conserves() ? "true" : "false");
    if (config.lazy_repair.enabled) {
      std::printf(
          "  \"lazy\": {\"bandwidth_bytes_per_s\": %.6g, \"admitted\": %llu, "
          "\"drained\": %llu, \"drained_bytes\": %llu, \"settled\": %llu, "
          "\"peak_queue\": %llu},\n",
          config.lazy_repair.bandwidth_bytes_per_s,
          ull(s.lazy_admitted), ull(s.lazy_drained), ull(s.lazy_drained_bytes),
          ull(s.lazy_settled), ull(s.lazy_peak_queue));
    }
  }
  if (config.faults.enabled()) {
    std::printf(
        "  \"faults\": {\"shuttle_failures\": %llu, \"shuttle_repairs\": %llu, "
        "\"drive_failures\": %llu, \"drive_repairs\": %llu, \"rack_failures\": "
        "%llu, \"rack_repairs\": %llu, \"aborted_shuttle_jobs\": %llu, "
        "\"stranded_recoveries\": %llu, \"dark_retries\": %llu, "
        "\"converted_requests\": %llu, \"amplified_requests\": %llu, "
        "\"requests_failed\": %llu},\n",
        ull(r.faults.shuttle_failures), ull(r.faults.shuttle_repairs),
        ull(r.faults.drive_failures), ull(r.faults.drive_repairs),
        ull(r.faults.rack_failures), ull(r.faults.rack_repairs),
        ull(r.faults.aborted_shuttle_jobs), ull(r.faults.stranded_recoveries),
        ull(r.faults.dark_retries), ull(r.faults.converted_requests),
        ull(r.amplified_requests), ull(r.requests_failed));
  }
  std::printf(
      "  \"control_plane\": {\"events_executed\": %llu, "
      "\"congestion_detours\": %llu, \"repartitions\": %llu, "
      "\"work_steals\": %llu},\n",
      ull(r.events_executed), ull(r.congestion_detours), ull(r.repartitions),
      ull(r.work_steals));
  std::printf("  \"makespan_seconds\": %.6g,\n", r.makespan);
  std::printf("  \"meets_slo\": %s\n",
              ct.Percentile(0.999) <= slo_s ? "true" : "false");
  std::printf("}\n");
}

void PrintTextReport(const LibrarySimResult& r,
                     const LibrarySimConfig& config,
                     const std::string& profile, const std::string& policy,
                     uint64_t window_bytes, double slo) {
  std::printf("trace %s: %llu requests (%s in window) | policy %s, %d shuttles, "
              "%.0f MB/s\n",
              profile.c_str(), ull(r.requests_total),
              FormatBytes(window_bytes).c_str(), policy.c_str(),
              config.library.num_shuttles, config.library.drive_throughput_mbps);
  std::printf("completion: p50 %s | p99 %s | p99.9 %s | max %s\n",
              FormatDuration(r.completion_times.Percentile(0.5)).c_str(),
              FormatDuration(r.completion_times.Percentile(0.99)).c_str(),
              FormatDuration(r.completion_times.Percentile(0.999)).c_str(),
              FormatDuration(r.completion_times.max()).c_str());
  std::printf("drives: util %.1f%% (reads %.1f%%, verifies %.1f%%)\n",
              100.0 * r.DriveUtilization(), 100.0 * r.DriveReadFraction(),
              100.0 * r.DriveVerifyFraction());
  std::printf("shuttles: %llu travels (mean %.1fs, p99.9 %.1fs), congestion "
              "%.1f%%, energy/op %.2f, %llu steals, %llu recharges\n",
              ull(r.travels), r.travel_times.mean(),
              r.travel_times.Percentile(0.999),
              100.0 * r.CongestionOverheadFraction(),
              r.EnergyPerPlatterOperation(),
              ull(r.work_steals), ull(r.shuttle_recharges));
  if (r.recovery_reads > 0) {
    std::printf("recovery: %llu cross-platter sub-reads\n",
                ull(r.recovery_reads));
  }
  if (config.faults.enabled()) {
    std::printf("faults: shuttles %llu/%llu, drives %llu/%llu, racks %llu/%llu "
                "(failed/repaired)\n",
                ull(r.faults.shuttle_failures), ull(r.faults.shuttle_repairs),
                ull(r.faults.drive_failures), ull(r.faults.drive_repairs),
                ull(r.faults.rack_failures), ull(r.faults.rack_repairs));
    std::printf("degraded: %llu aborted jobs, %llu stranded recoveries, %llu "
                "dark retries, %llu converted, %llu amplified, %llu failed\n",
                ull(r.faults.aborted_shuttle_jobs),
                ull(r.faults.stranded_recoveries), ull(r.faults.dark_retries),
                ull(r.faults.converted_requests), ull(r.amplified_requests),
                ull(r.requests_failed));
  }
  if (config.faults.aging.enabled() || config.scrub.enabled) {
    const auto& s = r.scrub;
    std::printf("aging: %llu events struck %llu sectors | scrub: %llu passes "
                "(%llu detections), %llu read detections\n",
                ull(s.aging_events), ull(s.latent_sectors),
                ull(s.scrubs_completed), ull(s.scrub_detections),
                ull(s.read_detections));
    std::printf("repair: %llu detected -> ldpc %llu, track-nc %llu, "
                "large-group %llu, platter-set %llu, unrecoverable %llu "
                "(%llu bytes lost)%s\n",
                ull(s.ledger.detected), ull(s.ledger.repaired[0]),
                ull(s.ledger.repaired[1]), ull(s.ledger.repaired[2]),
                ull(s.ledger.repaired[3]),
                ull(s.ledger.unrecoverable), ull(s.ledger.bytes_lost),
                s.ledger.Conserves() ? "" : " [LEDGER LEAK]");
    if (s.rebuilds_started > 0) {
      std::printf("rebuilds: %llu started, %llu completed, %llu retries, %llu "
                  "set-peer reads\n",
                  ull(s.rebuilds_started), ull(s.rebuilds_completed),
                  ull(s.rebuild_retries), ull(s.rebuild_reads));
    }
    if (config.lazy_repair.enabled) {
      std::printf("lazy: %llu admitted -> %llu drained (%llu bytes under "
                  "budget), %llu settled at end, peak queue %llu\n",
                  ull(s.lazy_admitted), ull(s.lazy_drained),
                  ull(s.lazy_drained_bytes), ull(s.lazy_settled),
                  ull(s.lazy_peak_queue));
    }
  }
  std::printf("verdict: %s the 15 h SLO\n",
              r.completion_times.Percentile(0.999) <= slo ? "meets" : "MISSES");
}

// The library twin (the default mode), optionally replicated over forked seeds
// or round-tripped through a checkpoint.
int RunTwin(const CommandLine& line) {
  bool no_stealing = false, no_grouping = false, no_fast_switch = false;
  double shuttle_mtbf = 0.0, shuttle_mttr = 0.0, drive_mtbf = 0.0,
         drive_mttr = 0.0, rack_mtbf = 0.0, rack_mttr = 0.0, aging_mtbe = 0.0;
  double checkpoint_at = 0.0;
  int replications = 1, sweep_threads = 1, threads = 1;
  bool json = false;
  std::string trace_csv, simd = "auto", metrics_out, trace_out, categories;
  FlagSet flags("silica_sim",
                "The library digital twin. Other modes: --federation=N (N libraries) and "
                "--mttdl=split|mc\n(set-level MTTDL); give --help with either for its flags.");
  TwinTemplate twin(flags);
  LibrarySimConfig& config = twin.config;
  flags.String("trace", &trace_csv, "replay this CSV trace instead of generating one")
      .Double("unavailable", &config.unavailable_fraction,
              "fraction of platters unavailable; their reads become recovery reads")
      .Bool("no-stealing", &no_stealing, "disable work stealing")
      .Bool("no-grouping", &no_grouping, "disable per-platter request grouping")
      .Bool("no-fast-switch", &no_fast_switch, "disable dual-slot fast switching")
      .Double("fault-shuttle-mtbf", &shuttle_mtbf, "exponential shuttle breakdowns, mean s")
      .Double("fault-shuttle-mttr", &shuttle_mttr, "shuttle repair, s (0 = permanent)")
      .Requires("fault-shuttle-mtbf")
      .Double("fault-drive-mtbf", &drive_mtbf, "read-drive outages, mean s")
      .Double("fault-drive-mttr", &drive_mttr, "read-drive repair, s")
      .Requires("fault-drive-mtbf")
      .Double("fault-rack-mtbf", &rack_mtbf, "rack (blast-zone) outages, mean s")
      .Double("fault-rack-mttr", &rack_mttr, "rack repair, s")
      .Requires("fault-rack-mtbf")
      .Double("fault-until", &config.faults.inject_until_s, "no new failures after this time, s")
      .Double("fleet-loss", &config.fleet_loss_fraction,
              "fraction of the shuttle fleet (highest ids) failed at t=0")
      .Int("blackout-partition", &config.blackout_partition,
           "partition whose read drives all go down for a window (-1 = none)")
      .Double("blackout-start", &config.blackout_start_s, "blackout start, s")
      .Requires("blackout-partition")
      .Double("blackout-duration", &config.blackout_duration_s, "blackout length, s")
      .Requires("blackout-partition")
      .Double("write-until", &config.write_until, "last platter ejected, s")
      .Requires("write-rate")
      .Double("write-surge-factor", &config.write_surge_factor, "write-rate multiple in the surge")
      .Requires("write-rate")
      .Double("write-surge-start", &config.write_surge_start_s, "surge start, s")
      .Requires("write-surge-factor")
      .Double("write-surge-duration", &config.write_surge_duration_s, "surge length, s")
      .Requires("write-surge-factor")
      .Bool("congestion-routing", &config.library.congestion_aware_routing,
            "congestion-aware rail routing: detour to a cheaper lane")
      .Int("detour-shelves", &config.library.congestion_detour_shelves, "detour radius, shelves")
      .Requires("congestion-routing")
      .Double("repartition-interval", &config.library.repartition_interval_s,
              "s between hot partitions shedding a slice to a cold neighbour (0 = off)")
      .Double("aging-mtbe", &aging_mtbe,
              "media aging: mean s between damage events per platter (0 = off)")
      .Int("aging-max-sectors", &config.faults.aging.max_sectors_per_event,
           "sectors struck per damage event, 1..N")
      .Requires("aging-mtbe")
      .Bool("scrub", &config.scrub.enabled, "background scrub on idle verify slots + repair")
      .Double("scrub-interval", &config.scrub.platter_interval_s, "s between passes per platter")
      .Requires("scrub")
      .Double("scrub-sample", &config.scrub.track_sample_fraction, "fraction of tracks per pass")
      .Requires("scrub")
      .Bool("lazy-repair", &config.lazy_repair.enabled,
            "drain scrub-detected damage by urgency under a bandwidth budget")
      .Double("repair-bandwidth", &config.lazy_repair.bandwidth_bytes_per_s,
              "lazy-repair bytes per second")
      .Requires("lazy-repair")
      .Double("repair-drain-interval", &config.lazy_repair.drain_interval_s,
              "lazy drain period, s")
      .Requires("lazy-repair")
      .Int("set-info", &config.platter_set_info, "data platters per set")
      .Int("set-redundancy", &config.platter_set_redundancy, "redundancy platters per set")
      .Double("checkpoint-at", &checkpoint_at,
              "snapshot at this time, resume in a fresh twin, exit 1 unless identical")
      .Int("replications", &replications, "replications: #0 keeps --seed, later ones fork it")
      .Int("sweep-threads", &sweep_threads, "threads running replications; same output for all")
      .Int("threads", &threads, "data-plane threads, recorded in the report")
      .Enum("simd", &simd, SimdModeNames(), "kernel tier; every tier is bit-identical")
      .Bool("json", &json, "machine-readable run report on stdout")
      .String("metrics-out", &metrics_out, "metrics file (.json -> JSON, else Prometheus text)")
      .String("trace-out", &trace_out, "Chrome/Perfetto trace_event JSON file")
      .String("trace-categories", &categories,
              "comma list of sim,shuttle,drive,scheduler,decode,pipeline,faults,scrub")
      .Requires("trace-out");
  if (!flags.Parse(line)) {
    return 0;
  }
  // These bounds have no config to own them: the twin never reads --threads
  // (it only echoes it), and replications are this tool's own loop.
  if (threads < 1) {
    throw FlagError("--threads must be >= 1");
  }
  if (replications < 1) {
    throw FlagError("--replications must be >= 1");
  }
  const bool checkpoint = flags.Given("checkpoint-at");
  if (replications > 1 && !trace_out.empty()) {
    throw FlagError("--trace-out requires --replications=1 (a trace file "
                    "describes a single run)");
  }
  if (checkpoint && (!metrics_out.empty() || !trace_out.empty())) {
    throw FlagError("--checkpoint-at is incompatible with --metrics-out and "
                    "--trace-out (the round-trip compares two bare runs)");
  }
  // Data-plane SIMD tier. Deliberately NOT echoed into the JSON report: every
  // tier is bit-identical, so scripted byte-identity checks can diff a
  // --simd=scalar run against --simd=auto directly.
  SetSimdModeByName(simd);

  config = twin.Config();
  config.library.work_stealing = !no_stealing;
  config.library.group_platter_requests = !no_grouping;
  config.library.fast_switching = !no_fast_switch;
  config.faults.shuttle = FaultProcess::Exponential(shuttle_mtbf, shuttle_mttr);
  config.faults.drive = FaultProcess::Exponential(drive_mtbf, drive_mttr);
  config.faults.rack = FaultProcess::Exponential(rack_mtbf, rack_mttr);
  config.faults.aging.event_gap =
      MediaAgingConfig::Exponential(aging_mtbe).event_gap;

  // CSV replay traces are read once and shared (read-only) by every replication;
  // generated traces are produced per replication from the replication's seed.
  GeneratedTrace shared_trace;
  if (!trace_csv.empty()) {
    std::ifstream in(trace_csv);
    const auto parsed = ReadTraceCsv(in);
    if (!parsed) {
      throw FlagError("--trace=" + trace_csv + ": could not parse trace CSV");
    }
    shared_trace.requests = *parsed;
    shared_trace.measure_start = 0.0;
    shared_trace.measure_end =
        shared_trace.requests.empty() ? 0.0 : shared_trace.requests.back().arrival;
    for (const auto& r : shared_trace.requests) {
      shared_trace.window_bytes += r.bytes;
    }
  }

  // Attach telemetry only when a sink was requested: with no sinks, the twin runs
  // the compiled-in fast path (null telemetry pointer, disabled tracer). With
  // replications, each runs against its own registry (no cross-thread contention)
  // and the registries are merged in replication order before the snapshot.
  std::vector<std::unique_ptr<Telemetry>> telemetries;
  if (!metrics_out.empty() || !trace_out.empty()) {
    for (int i = 0; i < replications; ++i) {
      telemetries.push_back(std::make_unique<Telemetry>());
      if (!trace_out.empty()) {
        telemetries.back()->tracer.Enable(ParseTraceCategories(categories));
      }
    }
  }

  struct Replication {
    LibrarySimResult result;
    LibrarySimConfig config;
    std::string profile_name;
    uint64_t window_bytes = 0;
    bool roundtrip_ok = true;
  };
  const auto reps = RunSweep<Replication>(
      static_cast<size_t>(replications), sweep_threads, [&](size_t i) {
        const uint64_t rep_seed = SweepSeed(config.seed, i);
        const TraceProfile rep_profile = twin.Profile(rep_seed);
        const GeneratedTrace trace =
            trace_csv.empty() ? GenerateTrace(rep_profile, config.num_info_platters)
                              : shared_trace;
        LibrarySimConfig rep_config = config;
        rep_config.seed = rep_seed;
        rep_config.measure_start = trace.measure_start;
        rep_config.measure_end = trace.measure_end;
        rep_config.telemetry =
            telemetries.empty() ? nullptr : telemetries[i].get();
        Replication rep;
        if (checkpoint) {
          // Capture run (snapshot mid-flight, then continue), then restore the
          // snapshot into a fresh twin and replay. The two result structs must
          // serialize byte-identically — the checkpoint contract.
          LibraryCheckpoint snapshot;
          rep.result = SimulateLibraryWithCheckpoint(
              rep_config, trace.requests, checkpoint_at, &snapshot);
          const LibrarySimResult resumed =
              ResumeLibrary(rep_config, trace.requests, snapshot);
          StateWriter capture_bytes;
          StateWriter resume_bytes;
          SaveLibrarySimResult(capture_bytes, rep.result);
          SaveLibrarySimResult(resume_bytes, resumed);
          rep.roundtrip_ok = capture_bytes.bytes() == resume_bytes.bytes();
        } else {
          rep.result = SimulateLibrary(rep_config, trace.requests);
        }
        rep.config = rep_config;
        rep.profile_name = trace_csv.empty() ? rep_profile.name : "csv";
        rep.window_bytes = trace.window_bytes;
        return rep;
      });

  if (!telemetries.empty()) {
    for (size_t i = 1; i < telemetries.size(); ++i) {
      telemetries[0]->metrics.Merge(telemetries[i]->metrics);
    }
    if (!metrics_out.empty() && !WriteMetrics(metrics_out, telemetries[0]->metrics)) {
      std::fprintf(stderr, "error: could not write %s\n", metrics_out.c_str());
      return 1;
    }
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      telemetries[0]->tracer.ExportJson(out);
      if (!out) {
        std::fprintf(stderr, "error: could not write %s\n", trace_out.c_str());
        return 1;
      }
    }
  }

  const double slo = 15.0 * 3600.0;
  if (json && replications > 1) {
    std::printf("[\n");
  }
  for (size_t i = 0; i < reps.size(); ++i) {
    const Replication& rep = reps[i];
    if (json) {
      if (i != 0) {
        std::printf(",\n");
      }
      PrintJsonReport(rep.result, rep.config, rep.profile_name, twin.policy,
                      rep.window_bytes, slo, threads);
    } else {
      if (replications > 1) {
        std::printf("%s=== replication %zu, seed %llu ===\n", i == 0 ? "" : "\n",
                    i, ull(rep.config.seed));
      }
      PrintTextReport(rep.result, rep.config, rep.profile_name, twin.policy,
                      rep.window_bytes, slo);
    }
  }
  if (json && replications > 1) {
    std::printf("]\n");
  }
  if (checkpoint) {
    bool all_ok = true;
    for (const Replication& rep : reps) {
      if (!rep.roundtrip_ok) {
        all_ok = false;
        std::fprintf(stderr,
                     "checkpoint round-trip DIVERGED (seed %llu, snapshot at "
                     "%g s)\n",
                     ull(rep.config.seed), checkpoint_at);
      }
    }
    if (!all_ok) {
      return 1;
    }
    std::fprintf(stderr, "checkpoint round-trip ok (snapshot at %g s)\n",
                 checkpoint_at);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return silica::RunCli([&] {
    const silica::CommandLine line(argc, argv);
    if (line.Has("mttdl")) {
      return RunMttdl(line);
    }
    if (line.Has("federation")) {
      return RunFederation(line);
    }
    return RunTwin(line);
  });
}
