// Figure 6: read drive utilization split between customer reads and verification.
// Paper claims reproduced: fast switching keeps average drive utilization >96%
// across workloads; drives spend most time verifying; IOPS costs more drive time
// than Volume (31% vs 26%) because of frequent mounts; Typical is ~6% reads / ~91%
// verifies. Includes the fast-switching ablation.
#include <cstdio>

#include "bench_util.h"

namespace silica {
namespace {

void Row(const char* name, const GeneratedTrace& trace, bool fast_switching) {
  auto config = BaseConfig(LibraryConfig::Policy::kPartitioned, trace);
  config.library.fast_switching = fast_switching;
  const auto result = SimulateLibrary(config, trace.requests);
  std::printf("%-10s %6s %12.1f%% %12.1f%% %12.1f%%\n", name,
              fast_switching ? "yes" : "no", 100.0 * result.DriveUtilization(),
              100.0 * result.DriveReadFraction(),
              100.0 * result.DriveVerifyFraction());
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  using namespace silica;
  return RunBench(argc, argv, "bench_fig6_utilization", "Figure 6: drive utilization.", [] {
    Header("Figure 6: read drive utilization (20 drives, 20 shuttles, 60 MB/s)");
    const auto iops = GenerateTrace(TraceProfile::Iops(42), kDefaultPlatters);
    const auto volume = GenerateTrace(TraceProfile::Volume(42), kDefaultPlatters);
    const auto typical = GenerateTrace(TraceProfile::Typical(42), kDefaultPlatters);

    std::printf("%-10s %6s %13s %13s %13s\n", "trace", "fastsw", "utilization",
                "reads", "verifies");
    Row("iops", iops, true);
    Row("volume", volume, true);
    Row("typical", typical, true);
    std::printf("\nablation: fast switching disabled (full unmount+mount per switch)\n");
    Row("iops", iops, false);
    Row("typical", typical, false);
    std::printf("\npaper: utilization >96%% for all workloads; reads 31%% (IOPS) vs\n"
                "26%% (Volume); Typical 6%% reads / 91%% verifies.\n");
    return 0;
  });
}
