// Figure 7: shuttle management.
//  (a) congestion overhead per travel vs shuttle count: SP grows with shuttles while
//      partitioned Silica stays low;
//  (b) power per platter operation: partitioning saves energy (shorter travels,
//      fewer stop/start cycles), savings grow with shuttle count;
//  (c) Zipf-skewed request placement: without load balancing the SLO is missed;
//      work stealing restores it at the cost of longer tail travels.
#include <cstdio>

#include "bench_util.h"

namespace silica {
namespace {

void Fig7ab(const GeneratedTrace& trace) {
  std::printf("\n--- Figure 7(a)/(b): congestion and power vs shuttles (IOPS) ---\n");
  std::printf("%-10s %12s %12s %14s %14s %12s\n", "shuttles", "Silica cong",
              "SP cong", "Silica e/op", "SP e/op", "power saved");
  for (int shuttles : {8, 12, 16, 20, 28, 40}) {
    LibrarySimResult results[2];
    int i = 0;
    for (auto policy : {LibraryConfig::Policy::kPartitioned,
                        LibraryConfig::Policy::kShortestPaths}) {
      auto config = BaseConfig(policy, trace);
      config.library.num_shuttles = shuttles;
      results[i++] = SimulateLibrary(config, trace.requests);
    }
    const double saving = 1.0 - results[0].EnergyPerPlatterOperation() /
                                    results[1].EnergyPerPlatterOperation();
    std::printf("%-10d %11.1f%% %11.1f%% %14.2f %14.2f %11.0f%%\n", shuttles,
                100.0 * results[0].CongestionOverheadFraction(),
                100.0 * results[1].CongestionOverheadFraction(),
                results[0].EnergyPerPlatterOperation(),
                results[1].EnergyPerPlatterOperation(), 100.0 * saving);
  }
  std::printf("(paper: SP congestion grows ~linearly with shuttles; Silica stays\n"
              " low; partitioning saves 20-90%% power per platter operation)\n");
}

void Fig7c() {
  std::printf("\n--- Figure 7(c): Zipf-skewed request distribution (Volume) ---\n");
  auto profile = TraceProfile::Volume(42);
  profile.zipf_skew = 0.9;  // hottest platter ~an order of magnitude hotter
  const auto trace = GenerateTrace(profile, kDefaultPlatters);

  struct Variant {
    const char* name;
    LibraryConfig::Policy policy;
    bool stealing;
  };
  const Variant variants[] = {
      {"Silica, no load balancing", LibraryConfig::Policy::kPartitioned, false},
      {"Silica + work stealing", LibraryConfig::Policy::kPartitioned, true},
      {"NS (no shuttles)", LibraryConfig::Policy::kNoShuttles, false},
  };
  std::printf("%-28s %12s %14s %12s %10s\n", "system", "tail", "tail travel",
              "steals", "verdict");
  for (const auto& v : variants) {
    auto config = BaseConfig(v.policy, trace);
    config.library.work_stealing = v.stealing;
    const auto result = SimulateLibrary(config, trace.requests);
    std::printf("%-28s %12s %13.1fs %12llu %10s\n", v.name, Tail(result).c_str(),
                result.travel_times.Percentile(0.999),
                static_cast<unsigned long long>(result.work_steals),
                SloVerdict(result));
  }
  std::printf("(paper: no-LB misses the SLO at >21 h; work stealing restores it at\n"
              " 11.5 h while tail travel grows 29.4 s -> 76 s; NS reaches 7.5 h)\n");
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  using namespace silica;
  return RunBench(argc, argv, "bench_fig7_shuttle_mgmt", "Figure 7: shuttle management.", [] {
    Header("Figure 7: shuttle management (20 drives, 60 MB/s)");
    const auto iops = GenerateTrace(TraceProfile::Iops(42), kDefaultPlatters);
    Fig7ab(iops);
    Fig7c();
    return 0;
  });
}
