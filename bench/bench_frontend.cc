// Front-end load harness (DESIGN.md §14.6): replays a multi-tenant Poisson/
// burst workload through FrontEnd over a real SilicaService and reports
// per-tenant latency percentiles, admission/rejection/coalescing counts, and
// Jain's fairness index.
//
// Two clocks:
//   * virtual (default): arrival timestamps drive Pump/Submit directly; the run
//     is deterministic and byte-identical for a given seed — the mode CI smokes
//     and BENCH_frontend.json tracks.
//   * --wall-clock: arrivals are paced in real time (sleep-until-deadline), so
//     the harness exercises the front door the way a live listener would; wall
//     timings go to stderr to keep stdout JSON comparable.
//
// A configurable number of "greedy" tenants submit at a large rate multiple
// under a byte budget, demonstrating fair-share containment: they absorb the
// rejections while interactive tenants keep their latency.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "frontend/frontend.h"
#include "telemetry/telemetry.h"
#include "workload/request_stream.h"

int main(int argc, char** argv) {
  using namespace silica;
  int tenants = 64;
  double duration = 10.0;
  double rate = 1.0;
  double read_fraction = 0.7;
  int greedy = 4;
  double greedy_multiplier = 12.0;
  int queue_depth = 48;
  uint64_t seed = 1;
  int threads = 4;
  bool json = false;
  bool wall_clock = false;
  FlagSet flags("bench_frontend",
                "Front-end fair-share harness: a multi-tenant Poisson/burst "
                "workload through FrontEnd.");
  flags.Int("tenants", &tenants, "tenants")
      .Double("duration", &duration, "workload length, s")
      .Double("rate", &rate, "requests per second per tenant")
      .Double("read-fraction", &read_fraction, "fraction of requests that are reads")
      .Int("greedy", &greedy, "tenants submitting at --greedy-multiplier x the rate")
      .Double("greedy-multiplier", &greedy_multiplier, "rate multiple of greedy tenants")
      .Int("queue-depth", &queue_depth, "per-tenant queue bound")
      .Uint("seed", &seed, "random seed")
      .Int("threads", &threads, "decode worker threads")
      .Bool("json", &json, "one JSON object on stdout")
      .Bool("wall-clock", &wall_clock,
            "pace arrivals in real time instead of the virtual clock");
  return RunBench(argc, argv, flags, [&] {

    // Workload: uniform tenants, with the first `greedy` submitting at a large
    // rate multiple (they will be byte-budgeted below).
    RequestStreamConfig stream_config;
    stream_config.num_tenants = tenants;
    stream_config.duration_s = duration;
    stream_config.base.rate_per_s = rate;
    stream_config.base.read_fraction = read_fraction;
    stream_config.seed = seed;
    stream_config.overrides.resize(static_cast<size_t>(std::min(greedy, tenants)),
                                   stream_config.base);
    for (auto& profile : stream_config.overrides) {
      profile.rate_per_s = rate * greedy_multiplier;
      profile.burst_sigma = 1.2;  // greedy tenants are also the burstiest
    }
    const auto stream = GenerateRequestStream(stream_config);

    ServiceConfig service_config;
    service_config.seed = seed;
    // Threaded decode keeps wall time sane; any threads > 1 value produces the
    // same decode outcomes (Rng::Fork per sector), so the JSON stays comparable.
    service_config.threads = threads;
    SilicaService service(service_config);

    // Setup phase: each tenant's initial catalog is written directly (this is
    // the pre-existing archive the reads target, not measured traffic).
    for (int t = 0; t < tenants; ++t) {
      Rng fill(seed + 7700 + static_cast<uint64_t>(t));
      for (int i = 0; i < stream_config.initial_objects_per_tenant; ++i) {
        std::vector<uint8_t> bytes(
            1024 + static_cast<size_t>(fill.UniformInt(0, 2048)));
        for (auto& b : bytes) {
          b = static_cast<uint8_t>(fill.UniformInt(0, 255));
        }
        service.Put(TenantObjectName(static_cast<uint64_t>(t),
                                     static_cast<uint64_t>(i)),
                    static_cast<uint64_t>(t), std::move(bytes));
      }
    }
    service.Flush();

    FrontEndConfig fe_config;
    fe_config.admission.max_queue_depth = static_cast<size_t>(queue_depth);
    fe_config.batch.flush_bytes =
        service.data_plane().geometry().payload_bytes_per_platter() * 4;
    fe_config.batch.max_linger_s = 1.0;
    fe_config.return_data = false;  // load test: latency only
    Telemetry telemetry;
    FrontEnd frontend(service, fe_config, &telemetry);
    for (int t = 0; t < std::min(greedy, tenants); ++t) {
      // Greedy tenants get a binding budget: ~2x the steady per-tenant load, far
      // below their offered rate, so their backlog overflows the bounded queue
      // and the rejections land on them rather than on interactive tenants.
      TenantBudget budget;
      budget.requests_per_s = 2.0 * rate;
      budget.burst_requests = 8.0;
      budget.bytes_per_s = 64.0 * 1024.0;
      budget.burst_bytes = 128.0 * 1024.0;
      frontend.SetTenantBudget(static_cast<uint64_t>(t), budget);
    }

    const auto wall_start = std::chrono::steady_clock::now();
    for (const TimedFrame& timed : stream) {
      if (wall_clock) {
        std::this_thread::sleep_until(
            wall_start + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(timed.time)));
      }
      frontend.Pump(timed.time);
      frontend.Submit(timed.frame, timed.time);
    }
    const double drain_end = frontend.Drain(duration);
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    const auto& totals = frontend.counters();
    PercentileTracker all_latency;
    std::vector<double> admitted_bytes_shares;
    std::vector<double> completed_shares;
    std::vector<std::string> tenant_rows;
    for (uint64_t tenant : frontend.tenant_order()) {
      const auto& stats = frontend.tenant_stats(tenant);
      all_latency.Merge(stats.latency);
      admitted_bytes_shares.push_back(static_cast<double>(stats.admitted_bytes));
      completed_shares.push_back(static_cast<double>(stats.completed));
      tenant_rows.push_back(
          JsonObject()
              .Field("tenant", tenant)
              .Field("submitted", stats.submitted)
              .Field("accepted", stats.accepted)
              .Field("rejected", stats.rejected)
              .Field("completed", stats.completed)
              .Field("failed", stats.failed)
              .Field("admitted_bytes", stats.admitted_bytes)
              .Field("latency_p50_s", stats.latency.Percentile(0.50))
              .Field("latency_p99_s", stats.latency.Percentile(0.99))
              .Str());
    }
    // Raw completed counts show the greedy skew; demand-normalized goodput
    // (completed / submitted) is the fairness signal for steady tenants, since
    // the burst envelope makes per-tenant *demand* vary even at equal rates.
    std::vector<double> goodput_steady;
    for (uint64_t tenant : frontend.tenant_order()) {
      if (tenant < static_cast<uint64_t>(std::min(greedy, tenants))) {
        continue;
      }
      const auto& stats = frontend.tenant_stats(tenant);
      goodput_steady.push_back(static_cast<double>(stats.completed) /
                               static_cast<double>(std::max<uint64_t>(
                                   1, stats.submitted)));
    }
    const double jain_all = JainFairnessIndex(completed_shares);
    const double jain_steady = JainFairnessIndex(goodput_steady);

    if (json) {
      JsonObject config_json;
      config_json.Field("tenants", tenants)
          .Field("duration_s", duration)
          .Field("rate_per_s", rate)
          .Field("read_fraction", read_fraction)
          .Field("greedy_tenants", std::min(greedy, tenants))
          .Field("greedy_multiplier", greedy_multiplier)
          .Field("queue_depth", queue_depth)
          .Field("seed", seed)
          .Field("virtual_clock", !wall_clock);
      JsonObject totals_json;
      totals_json.Field("submitted", totals.submitted)
          .Field("accepted", totals.accepted)
          .Field("rejected", totals.rejected)
          .Field("admitted", totals.admitted)
          .Field("completed", totals.completed)
          .Field("failed", totals.failed)
          .Field("read_batches", totals.read_batches)
          .Field("reads_executed", totals.reads_executed)
          .Field("staged_read_hits", totals.staged_read_hits)
          .Field("platter_mounts", totals.platter_mounts)
          .Field("coalesced_reads", totals.coalesced_reads)
          .Field("flushes", totals.flushes)
          .Field("write_retries", totals.write_retries)
          .Field("writes_executed", totals.writes_executed)
          .Field("deletes_executed", totals.deletes_executed)
          .Field("bytes_read", totals.bytes_read)
          .Field("bytes_written", totals.bytes_written)
          .Field("drain_end_s", drain_end);
      JsonObject report;
      report.Field("bench", "frontend")
          .FieldRaw("host", HostJson())
          .FieldRaw("config", config_json.Str())
          .FieldRaw("totals", totals_json.Str())
          .FieldRaw("conservation",
                    JsonObject()
                        .Field("admission", totals.ConservesAdmission())
                        .Field("completion", totals.ConservesCompletion())
                        .Str())
          .FieldRaw("coalescing",
                    JsonObject()
                        .Field("reads_executed", totals.reads_executed)
                        .Field("platter_mounts", totals.platter_mounts)
                        .Field("mounts_per_read",
                               totals.reads_executed
                                   ? static_cast<double>(totals.platter_mounts) /
                                         static_cast<double>(totals.reads_executed)
                                   : 0.0)
                        .Str())
          .FieldRaw("fairness", JsonObject()
                                    .Field("jain_completed_all", jain_all)
                                    .Field("jain_goodput_steady", jain_steady)
                                    .Str())
          .FieldRaw("latency", JsonObject()
                                   .Field("p50_s", all_latency.Percentile(0.50))
                                   .Field("p99_s", all_latency.Percentile(0.99))
                                   .Field("max_s", all_latency.max())
                                   .Str())
          .FieldRaw("tenants", JsonArray(tenant_rows));
      std::printf("%s\n", report.Str().c_str());
      if (wall_clock) {
        std::fprintf(stderr, "wall_seconds: %.3f\n", wall_seconds);
      }
      return 0;
    }

    Header("Front-end load harness: multi-tenant fair-share ingest/read");
    std::printf("tenants %d (greedy %d @ %.0fx), duration %.1fs, rate %.2f/s, "
                "seed %llu, %s clock\n",
                tenants, std::min(greedy, tenants), greedy_multiplier, duration,
                rate, static_cast<unsigned long long>(seed),
                wall_clock ? "wall" : "virtual");
    std::printf("submitted %llu = accepted %llu + rejected %llu (%s)\n",
                static_cast<unsigned long long>(totals.submitted),
                static_cast<unsigned long long>(totals.accepted),
                static_cast<unsigned long long>(totals.rejected),
                totals.ConservesAdmission() ? "conserves" : "LEAK");
    std::printf("admitted %llu = completed %llu + failed %llu (%s)\n",
                static_cast<unsigned long long>(totals.admitted),
                static_cast<unsigned long long>(totals.completed),
                static_cast<unsigned long long>(totals.failed),
                totals.ConservesCompletion() ? "conserves" : "LEAK");
    std::printf("coalescing: %llu reads over %llu mounts (%.2f reads/mount)\n",
                static_cast<unsigned long long>(totals.reads_executed),
                static_cast<unsigned long long>(totals.platter_mounts),
                totals.platter_mounts
                    ? static_cast<double>(totals.reads_executed) /
                          static_cast<double>(totals.platter_mounts)
                    : 0.0);
    std::printf("latency p50 %.3fs  p99 %.3fs  max %.3fs\n",
                all_latency.Percentile(0.50), all_latency.Percentile(0.99),
                all_latency.max());
    std::printf("fairness (Jain): completed all %.3f, steady goodput %.3f\n",
                jain_all, jain_steady);
    std::printf("drain end %.1fs virtual, wall %.2fs\n", drain_end, wall_seconds);
    return 0;
  });
}
