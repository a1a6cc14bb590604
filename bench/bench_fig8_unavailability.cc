// Figure 8: performance with unavailable platters (shuttle / read drive failures).
// Reads to an unavailable platter amplify into I_p = 16 reads of the matching
// tracks across its platter-set (cross-platter network coding). Paper claims
// reproduced: IOPS stays within SLO even at 10% unavailability with 30 MB/s
// drives; Volume is throughput-bound, so higher drive throughput shrinks the tail
// substantially under failures.
//
// Accepts --sweep-threads=K: each sweep's cells run in parallel (the shared
// trace is read-only) and rows print afterwards in cell order, so the output is
// byte-identical for every K.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

namespace silica {
namespace {

void Sweep(const char* name, const GeneratedTrace& trace, double mbps,
           int sweep_threads) {
  std::printf("\n--- %s, %.0f MB/s drives ---\n", name, mbps);
  std::printf("%-16s %14s %16s %12s\n", "unavailable", "tail", "recovery reads",
              "verdict");
  const std::vector<double> fracs = {0.0, 0.02, 0.05, 0.08, 0.10};
  const auto rows = RunSweep<std::string>(
      fracs.size(), sweep_threads, [&](size_t i) {
        const double frac = fracs[i];
        auto config = BaseConfig(LibraryConfig::Policy::kPartitioned, trace);
        config.library.drive_throughput_mbps = mbps;
        config.unavailable_fraction = frac;
        const auto result = SimulateLibrary(config, trace.requests);
        char row[96];
        std::snprintf(row, sizeof(row), "%14.0f%% %14s %16llu %12s",
                      100.0 * frac, Tail(result).c_str(),
                      static_cast<unsigned long long>(result.recovery_reads),
                      SloVerdict(result));
        return std::string(row);
      });
  for (const auto& row : rows) {
    std::printf("%s\n", row.c_str());
  }
}

// Dynamic variant: instead of a static pre-run unavailability sample, run the
// fault injector (src/faults) so shuttles break mid-transit, drives seal and
// resume, and racks go dark and recover while the trace is in flight. The
// sweep scales one baseline failure intensity up; MTTRs stay fixed, so higher
// rates mean more of the library is dark at any instant.
void DynamicSweep(const char* name, const GeneratedTrace& trace, double mbps,
                  int sweep_threads) {
  std::printf("\n--- %s, %.0f MB/s drives, dynamic faults ---\n", name, mbps);
  std::printf("%-10s %22s %14s %10s %10s %8s %12s\n", "intensity",
              "failures (sh/dr/rk)", "tail", "amplified", "recovery", "failed",
              "verdict");
  const std::vector<double> intensities = {1.0, 4.0, 16.0};
  const auto rows = RunSweep<std::string>(
      intensities.size(), sweep_threads, [&](size_t i) {
        const double intensity = intensities[i];
        auto config = BaseConfig(LibraryConfig::Policy::kPartitioned, trace);
        config.library.drive_throughput_mbps = mbps;
        // Baseline (intensity 1): a shuttle breaks about twice a week, a drive
        // once a month, a rack once a quarter; repairs take 30 min / 2 h / 8 h.
        config.faults.shuttle =
            FaultProcess::Exponential(300.0 * 3600.0 / intensity, 0.5 * 3600.0);
        config.faults.drive =
            FaultProcess::Exponential(720.0 * 3600.0 / intensity, 2.0 * 3600.0);
        config.faults.rack =
            FaultProcess::Exponential(2160.0 * 3600.0 / intensity, 8.0 * 3600.0);
        const auto result = SimulateLibrary(config, trace.requests);
        char failures[32];
        std::snprintf(
            failures, sizeof(failures), "%llu/%llu/%llu",
            static_cast<unsigned long long>(result.faults.shuttle_failures),
            static_cast<unsigned long long>(result.faults.drive_failures),
            static_cast<unsigned long long>(result.faults.rack_failures));
        char row[128];
        std::snprintf(row, sizeof(row), "%9.0fx %22s %14s %10llu %10llu %8llu %12s",
                      intensity, failures, Tail(result).c_str(),
                      static_cast<unsigned long long>(result.amplified_requests),
                      static_cast<unsigned long long>(result.recovery_reads),
                      static_cast<unsigned long long>(result.requests_failed),
                      SloVerdict(result));
        return std::string(row);
      });
  for (const auto& row : rows) {
    std::printf("%s\n", row.c_str());
  }
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  using namespace silica;
  int sweep_threads = 1;
  FlagSet flags("bench_fig8_unavailability",
                "Figure 8: tail completion with unavailable platters.");
  flags.Int("sweep-threads", &sweep_threads,
            "threads running the sweep cells; the table is identical for "
            "every value");
  return RunBench(argc, argv, flags, [&] {
    Header("Figure 8: impact of platter unavailability (20 drives, 20 shuttles)");
    const auto iops = GenerateTrace(TraceProfile::Iops(42), kDefaultPlatters);
    const auto volume = GenerateTrace(TraceProfile::Volume(42), kDefaultPlatters);
    Sweep("IOPS", iops, 30, sweep_threads);
    Sweep("IOPS", iops, 60, sweep_threads);
    Sweep("Volume", volume, 30, sweep_threads);
    Sweep("Volume", volume, 60, sweep_threads);
    DynamicSweep("IOPS", iops, 60, sweep_threads);
    DynamicSweep("Volume", volume, 60, sweep_threads);
    std::printf("\npaper: IOPS within SLO at 10%% unavailability even with 30 MB/s\n"
                "readers; Volume at 10%% improves from ~35 h (30 MB/s) to ~15 h\n"
                "(60 MB/s) — aggregate throughput is the binding constraint.\n");
    return 0;
  });
}
