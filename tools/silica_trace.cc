// silica_trace: generate a synthetic archival read trace as CSV on stdout
// (columns id,arrival_s,file_id,bytes,platter,parent). `silica_trace --help`
// lists the flags. Exit status: 0 ok, 2 a usage error.
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "workload/trace_gen.h"

int main(int argc, char** argv) {
  using namespace silica;
  return RunCli([&] {
    std::string name = "typical";
    uint64_t seed = 1;
    uint64_t platters = 3000;
    double rate = 0.0;
    double zipf = TraceProfile().zipf_skew;
    double window_hours = TraceProfile().window_s / 3600.0;
    FlagSet flags("silica_trace",
                  "Synthetic archival read trace as CSV on stdout.");
    flags.Enum("profile", &name, TraceProfile::Names(), "read-trace profile")
        .Uint("platters", &platters, "platters the trace reads from")
        .Uint("seed", &seed, "random seed")
        .Double("rate", &rate, "mean reads per second (0 = the profile's)")
        .Double("zipf", &zipf, "Zipf skew of platter popularity")
        .Double("window-hours", &window_hours, "measured window, hours");
    if (!flags.Parse(argc, argv)) {
      return 0;
    }
    TraceProfile profile = TraceProfile::Named(name, seed);
    if (rate != 0.0) {
      profile.mean_rate_per_s = rate;
    }
    profile.zipf_skew = zipf;
    profile.window_s = window_hours * 3600.0;
    const auto trace = GenerateTrace(profile, platters);

    std::fprintf(stderr,
                 "# profile=%s window=[%.0f,%.0f] requests=%zu window_bytes=%llu\n",
                 profile.name.c_str(), trace.measure_start, trace.measure_end,
                 trace.requests.size(),
                 static_cast<unsigned long long>(trace.window_bytes));
    std::printf("id,arrival_s,file_id,bytes,platter,parent\n");
    for (const auto& r : trace.requests) {
      std::printf("%llu,%.3f,%llu,%llu,%llu,%llu\n",
                  static_cast<unsigned long long>(r.id), r.arrival,
                  static_cast<unsigned long long>(r.file_id),
                  static_cast<unsigned long long>(r.bytes),
                  static_cast<unsigned long long>(r.platter),
                  static_cast<unsigned long long>(r.parent));
    }
    return 0;
  });
}
