// Ablations of the design choices DESIGN.md calls out, beyond the paper's own
// baselines: per-platter request grouping, work stealing under uniform load, and
// the steal threshold.
#include <cstdio>

#include "bench_util.h"

namespace silica {
namespace {

void GroupingAblation(const GeneratedTrace& trace) {
  Header("Ablation: per-platter request grouping (IOPS workload)");
  std::printf("%-12s %14s %12s\n", "grouping", "tail", "travels");
  for (bool grouping : {true, false}) {
    auto config = BaseConfig(LibraryConfig::Policy::kPartitioned, trace);
    config.library.group_platter_requests = grouping;
    const auto result = SimulateLibrary(config, trace.requests);
    std::printf("%-12s %14s %12llu\n", grouping ? "on" : "off",
                Tail(result).c_str(),
                static_cast<unsigned long long>(result.travels));
  }
  std::printf("(grouping amortizes a platter fetch across every queued request —\n"
              " Section 4.1: 'the fetch time dominates')\n");
}

void StealingAblation(const GeneratedTrace& trace) {
  Header("Ablation: work stealing under *uniform* load (Volume workload)");
  std::printf("%-12s %14s %12s\n", "stealing", "tail", "steals");
  for (bool stealing : {true, false}) {
    auto config = BaseConfig(LibraryConfig::Policy::kPartitioned, trace);
    config.library.work_stealing = stealing;
    const auto result = SimulateLibrary(config, trace.requests);
    std::printf("%-12s %14s %12llu\n", stealing ? "on" : "off",
                Tail(result).c_str(),
                static_cast<unsigned long long>(result.work_steals));
  }
  std::printf("(uniform load rarely triggers steals; the mechanism matters for\n"
              " skew — see bench_fig7_shuttle_mgmt)\n");
}

void ThresholdAblation() {
  Header("Ablation: steal threshold under Zipf skew (Volume workload)");
  auto profile = TraceProfile::Volume(42);
  profile.zipf_skew = 0.9;
  const auto trace = GenerateTrace(profile, kDefaultPlatters);
  std::printf("%-16s %14s %12s\n", "threshold", "tail", "steals");
  for (double threshold : {64e6, 256e6, 1e9, 4e9, 16e9}) {
    auto config = BaseConfig(LibraryConfig::Policy::kPartitioned, trace);
    config.library.steal_threshold_bytes = threshold;
    const auto result = SimulateLibrary(config, trace.requests);
    std::printf("%13.0f MB %14s %12llu\n", threshold / 1e6, Tail(result).c_str(),
                static_cast<unsigned long long>(result.work_steals));
  }
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  using namespace silica;
  return RunBench(argc, argv, "bench_ablation", "Ablations: grouping, stealing, threshold.", [] {
    const auto iops = GenerateTrace(TraceProfile::Iops(42), kDefaultPlatters);
    const auto volume = GenerateTrace(TraceProfile::Volume(42), kDefaultPlatters);
    GroupingAblation(iops);
    StealingAblation(volume);
    ThresholdAblation();
    return 0;
  });
}
