// Multi-library deployments (Section 6): spreading platter-sets across libraries
// "leads to better load-balancing and higher utilization of libraries at read-time"
// versus colocating related platters. Not a numbered paper figure; quantifies the
// placement claim.
#include <cstdio>

#include "bench_util.h"
#include "core/deployment.h"

namespace silica {
namespace {

void Run(const char* label, PlatterSpread spread, const GeneratedTrace& trace) {
  DeploymentConfig config;
  config.num_libraries = 3;
  config.spread = spread;
  config.library.library.drives_per_read_rack = 3;  // three small libraries
  config.library.library.num_shuttles = 6;
  config.library.num_info_platters = kDefaultPlatters / 3;
  config.library.measure_start = trace.measure_start;
  config.library.measure_end = trace.measure_end;

  const auto result = SimulateDeployment(config, trace.requests);
  std::printf("%-10s %14s %13.2fx    per-library bytes:", label,
              FormatDuration(result.completion_times.Percentile(0.999)).c_str(),
              result.LoadImbalance());
  for (uint64_t b : result.bytes_per_library) {
    std::printf(" %s", FormatBytes(b).c_str());
  }
  std::printf("\n");
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  using namespace silica;
  return RunBench(argc, argv, "bench_deployment", "Section 6: platter sets spread vs packed.", [] {
    Header("Deployment placement: spread vs packed (3 libraries, Zipf-skewed IOPS)");
    auto profile = TraceProfile::Iops(42);
    profile.zipf_skew = 1.0;
    const auto trace = GenerateTrace(profile, kDefaultPlatters);
    std::printf("%-10s %14s %14s\n", "placement", "tail", "imbalance");
    Run("spread", PlatterSpread::kSpread, trace);
    Run("packed", PlatterSpread::kPacked, trace);
    std::printf("\nspreading a platter-set across libraries spreads the traffic of\n"
                "the files that live on it (they are read together by construction),\n"
                "so hot content cannot pin one library while others idle.\n");
    return 0;
  });
}
