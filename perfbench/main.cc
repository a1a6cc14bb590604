// perfbench: one benchmark for the whole system.
//
//   perfbench --workload ingest|recall|library|geo --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// Prints a host line, then, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// workload runs twice (untraced, then traced) and the metrics are the
// per-layer set plus trace.overhead_frac. Exits 1 when a correctness gate
// fails, 2 on bad arguments.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "ecc/simd/gf256_kernels.h"

namespace perfbench {

std::vector<uint8_t> Payload(uint64_t content_seed, size_t size) {
  std::vector<uint8_t> out(size);
  uint64_t state = content_seed;
  for (size_t i = 0; i < size; i += 8) {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    for (size_t b = 0; b < 8 && i + b < size; ++b) {
      out[i + b] = static_cast<uint8_t>(z >> (8 * b));
    }
  }
  return out;
}

std::string JoinValues(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<double> SpanRecorder::SelfTimesOf(const std::string& name) const {
  if (self_cache_.size() != spans_.size()) {
    self_cache_ = SelfTimes(spans_);
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back(self_cache_[i]);
    }
  }
  return out;
}

double SpanRecorder::TotalSelf(const std::string& name) const {
  double total = 0.0;
  for (double s : SelfTimesOf(name)) {
    total += s;
  }
  return total;
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"request\": %" PRIu64 "}}\n",
                 i == 0 ? "" : ",", s.name, s.start * 1e6,
                 (s.end - s.start) * 1e6, i, s.parent, s.request);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

namespace {

int CountCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// Machine-wide CPU ticks (all, stolen) from /proc/stat; zeros when absent.
std::pair<double, double> CpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> v; ++i) {
    total += v;
    if (i == 7) {
      steal = v;
    }
  }
  return {total, steal};
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ingest|recall|library|geo --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  std::printf("\"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}");
}

double FindMetric(const std::vector<Metric>& metrics, const char* name) {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return m.value;
    }
  }
  return 0.0;
}

// Every per-layer metric, in output order. A traced run reports all of them;
// a layer the workload never calls into reads 0.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"workload.gen_s", "s"},
    {"frontend.submit_us_p50", "us"},
    {"frontend.idle_pump_us_p50", "us"},
    {"frontend.rejected_frac", "ratio"},
    {"frontend.reads_per_mount", "ratio"},
    {"frontend.writes_per_flush", "ratio"},
    {"frontend.staged_read_hit_frac", "ratio"},
    {"frontend.read_exec_ms_p50", "ms"},
    {"frontend.read_exec_ms_p99", "ms"},
    {"frontend.read_exec_samples", "count"},
    {"service.flush_exec_ms_p50", "ms"},
    {"service.flush_retries", "count"},
    {"service.platters_per_flush", "ratio"},
    {"service.archive_build_s", "s"},
    {"service.degraded_read_frac", "ratio"},
    {"service.stored_per_user_byte", "ratio"},
    {"dataplane.sectors_per_user_kb", "ratio"},
    {"dataplane.ldpc_failure_frac", "ratio"},
    {"dataplane.platters_verified", "count"},
    {"dataplane.nc_recoveries", "count"},
    {"dataplane.set_recoveries", "count"},
    {"dataplane.recovery_reads_per_degraded_read", "ratio"},
    {"dataplane.write_platter_ms", "ms"},
    {"dataplane.verify_platter_ms", "ms"},
    {"dataplane.encode_set_ms", "ms"},
    {"dataplane.read_file_ms", "ms"},
    {"dataplane.recover_track_ms", "ms"},
    {"dataplane.host_share", "ratio"},
    {"twin.prologue_s", "s"},
    {"twin.events_per_s", "1/s"},
    {"twin.events_per_request", "ratio"},
    {"twin.hour_wall_ms_p50", "ms"},
    {"twin.hour_wall_ms_max", "ms"},
    {"twin.finish_s", "s"},
    {"twin.ttlb_p999_s", "s"},
    {"sched.work_steals", "count"},
    {"sched.repartitions", "count"},
    {"rails.travels_per_request", "ratio"},
    {"rails.congestion_overhead_frac", "ratio"},
    {"rails.congestion_detours", "count"},
    {"drive.utilization", "ratio"},
    {"drive.switch_frac", "ratio"},
    {"faults.aborted_jobs", "count"},
    {"faults.amplified_frac", "ratio"},
    {"faults.recovery_reads", "count"},
    {"maint.run_s", "s"},
    {"maint.scrub_drive_frac", "ratio"},
    {"maint.lazy_drained_mb", "MB"},
    {"maint.lazy_peak_queue", "count"},
    {"maint.rebuilds", "count"},
    {"fed.epochs", "count"},
    {"fed.messages_per_epoch", "ratio"},
    {"fed.serial_s", "s"},
    {"fed.parallel_efficiency", "ratio"},
    {"fed.geo_ttlb_p999_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

// The catalog order with the workload's values; missing layers read 0. A
// metric reported under a name or unit outside the catalog is a bug.
std::vector<Metric> CompletePerLayer(const Report& report) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : kPerLayer) {
    Metric m{name, 0.0, unit};
    for (const Metric& reported : report.per_layer) {
      if (reported.name == name) {
        m.value = reported.value;
      }
    }
    const bool unmeasured = std::any_of(
        report.notes.begin(), report.notes.end(),
        [&](const auto& note) { return note.first == name; });
    if (!unmeasured) {
      out.push_back(m);
    }
  }
  for (const Metric& reported : report.per_layer) {
    const bool known = std::any_of(kPerLayer.begin(), kPerLayer.end(), [&](const auto& e) {
      return reported.name == e.first && reported.unit == e.second;
    });
    if (!known) {
      std::fprintf(stderr, "perfbench: metric %s [%s] is not in the catalog\n",
                   reported.name.c_str(), reported.unit.c_str());
      std::abort();
    }
  }
  return out;
}

void RunWorkload(const Options& options, SpanRecorder& spans, Report& report) {
  if (options.workload == "ingest") {
    RunIngest(options, spans, report);
  } else if (options.workload == "recall") {
    RunRecall(options, spans, report);
  } else if (options.workload == "library") {
    RunLibrary(options, spans, report);
  } else {
    RunGeo(options, spans, report);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &n)) {
        return Usage("--seed must be a non-negative integer");
      }
      options.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n < 1 || n > 600) {
        return Usage("--seconds must be an integer in [1, 600]");
      }
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      options.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (options.workload != "ingest" && options.workload != "recall" &&
      options.workload != "library" && options.workload != "geo") {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  options.nproc = CountCpus();
  options.threads = std::min(4, options.nproc);

  Report report;
  const auto ticks_before = CpuTicks();
  try {
    if (options.trace) {
      // Untraced pass first (its ops_per_s is the overhead baseline), then the
      // traced pass that yields the per-layer numbers.
      SpanRecorder off(false);
      Report baseline;
      RunWorkload(options, off, baseline);
      SpanRecorder spans(true);
      RunWorkload(options, spans, report);
      report.correct = report.correct && baseline.correct;
      report.attempted += baseline.attempted;
      report.failed += baseline.failed;
      const double traced = FindMetric(report.end_to_end, "ops_per_s");
      const double untraced = FindMetric(baseline.end_to_end, "ops_per_s");
      report.Layer("trace.overhead_frac",
                   traced > 0.0 ? untraced / traced - 1.0 : 0.0, "ratio");
      if (!options.trace_out.empty() && !spans.WriteChromeJson(options.trace_out)) {
        std::fprintf(stderr, "perfbench: could not write %s\n",
                     options.trace_out.c_str());
      }
      report.notes.emplace_back("spans", std::to_string(spans.spans().size()));
    } else {
      SpanRecorder off(false);
      RunWorkload(options, off, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }

  // Share of the machine's CPU time the hypervisor took while this ran: a
  // noisy-neighbour diagnostic for reading the timings.
  const auto ticks_after = CpuTicks();
  const double ticks = ticks_after.first - ticks_before.first;
  char steal[32];
  std::snprintf(steal, sizeof(steal), "%.4f",
                ticks > 0.0 ? (ticks_after.second - ticks_before.second) / ticks : 0.0);
  report.notes.emplace_back("steal_frac", steal);
  std::printf("{\"host\": {\"nproc\": %d, \"simd\": \"%s\", \"build_type\": "
              "\"%s\", \"compiler\": \"%s\", \"threads\": %d, \"seed\": %" PRIu64
              ", \"workload\": \"%s\", \"seconds\": %g, \"trace\": %d",
              options.nproc, silica::ActiveKernels().name, PERFBENCH_BUILD_TYPE,
              Compiler().c_str(), options.threads, options.seed,
              options.workload.c_str(), options.seconds, options.trace ? 1 : 0);
  for (const auto& [key, value] : report.notes) {
    std::printf(", \"%s\": \"%s\"", key.c_str(), value.c_str());
  }
  std::printf("}}\n");
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", ",
              report.correct ? "true" : "false",
              std::max<uint64_t>(1, report.attempted), report.failed);
  PrintMetrics(options.trace ? CompletePerLayer(report) : report.end_to_end);
  std::printf("}\n");
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
