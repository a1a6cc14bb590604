// Figure 5(c)/(d): tail completion time vs number of shuttles (8..40) for the IOPS
// and Volume workloads across NS / SP / Silica.
// Paper claims reproduced: more shuttles steadily reduce the Silica tail with
// diminishing returns beyond ~20; Silica beats the SP strawman on the
// shuttle-movement-bound IOPS workload; NS (infinitely fast delivery) bounds below.
#include <cstdio>

#include "bench_util.h"

namespace silica {
namespace {

void Sweep(const char* figure, const GeneratedTrace& trace) {
  std::printf("\n--- %s ---\n", figure);

  const auto ns = SimulateLibrary(
      BaseConfig(LibraryConfig::Policy::kNoShuttles, trace), trace.requests);
  std::printf("NS (no shuttles): tail %s (constant across the sweep)\n\n",
              Tail(ns).c_str());

  std::printf("%-10s %14s %14s %16s\n", "shuttles", "Silica tail", "SP tail",
              "Silica verdict");
  for (int shuttles : {8, 12, 16, 20, 28, 40}) {
    LibrarySimResult results[2];
    int i = 0;
    for (auto policy : {LibraryConfig::Policy::kPartitioned,
                        LibraryConfig::Policy::kShortestPaths}) {
      auto config = BaseConfig(policy, trace);
      config.library.num_shuttles = shuttles;
      results[i++] = SimulateLibrary(config, trace.requests);
    }
    std::printf("%-10d %14s %14s %16s\n", shuttles, Tail(results[0]).c_str(),
                Tail(results[1]).c_str(), SloVerdict(results[0]));
  }
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  using namespace silica;
  return RunBench(argc, argv, "bench_fig5_shuttles", "Figure 5(c)/(d): shuttle count.", [] {
    Header("Figure 5(c)/(d): tail completion vs shuttles (20 drives, 60 MB/s)");
    const auto iops = GenerateTrace(TraceProfile::Iops(42), kDefaultPlatters);
    const auto volume = GenerateTrace(TraceProfile::Volume(42), kDefaultPlatters);
    Sweep("Figure 5(c): IOPS workload", iops);
    Sweep("Figure 5(d): Volume workload", volume);
    std::printf("\npaper: IOPS Silica improves 10h @8 -> 1h20 @40 with diminishing\n"
                "returns from 20; Silica 2.8h vs SP 5h at 20 shuttles; Volume needs\n"
                ">=12 shuttles for SLO and flattens at 20.\n");
    return 0;
  });
}
