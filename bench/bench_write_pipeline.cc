// The explicit write/verification pipeline (Section 3.1): every byte written must
// be read back with the read technology before the staged copy is deleted, so the
// workload becomes read-dominated during ingest and verification soaks up idle
// read-drive capacity. Not a numbered paper figure; quantifies Section 3.1.
#include <cstdio>

#include "bench_util.h"

namespace silica {
namespace {

void Sweep() {
  Header("Write pipeline: verification turnaround vs ingest rate "
         "(20 drives, 20 shuttles, 60 MB/s)");
  auto profile = TraceProfile::Typical(42);
  profile.window_s = 8.0 * kHour;
  const auto trace = GenerateTrace(profile, kDefaultPlatters);

  std::printf("%-18s %10s %10s %16s %16s %14s\n", "platters/hour", "written",
              "verified", "turnaround p50", "turnaround p99", "read tail");
  for (double rate : {0.25, 0.5, 1.0, 1.5}) {
    auto config = BaseConfig(LibraryConfig::Policy::kPartitioned, trace);
    config.write_platters_per_hour = rate;
    config.write_until = trace.measure_end;
    const auto r = SimulateLibrary(config, trace.requests);
    std::printf("%-18.2f %10llu %10llu %16s %16s %14s\n", rate,
                static_cast<unsigned long long>(r.platters_written),
                static_cast<unsigned long long>(r.platters_verified),
                FormatDuration(r.verify_turnaround.Percentile(0.5)).c_str(),
                FormatDuration(r.verify_turnaround.Percentile(0.99)).c_str(),
                Tail(r).c_str());
  }
  const double full_verify_h =
      StreamSeconds(static_cast<uint64_t>(
                        MediaGeometry::ProductionScale().tracks_per_platter()) *
                        MediaGeometry::ProductionScale().raw_bytes_per_track(),
                    60.0) /
      3600.0;
  std::printf("\none full-platter verification = %.1f drive-hours at 60 MB/s, so\n"
              "20 drives sustain ~%.1f platters/hour of ingest; customer reads\n"
              "preempt verification via fast switching, so read tails stay flat\n"
              "while verification rides the idle capacity (Section 3.1).\n",
              full_verify_h, 20.0 / full_verify_h);
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  return silica::RunBench(argc, argv, "bench_write_pipeline", "Section 3.1: write pipeline.", [] {
    silica::Sweep();
    return 0;
  });
}
