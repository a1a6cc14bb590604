// Figure 9: performance of a fully populated library under synthetic steady load.
// Poisson arrivals, ~100 MB files, uniform placement across a full library; read
// rates bracketing the projected 9-age-fold future (1.6 reads/s), with 30/60/120
// MB/s drives. Paper claim reproduced: 60 MB/s drives service the projected future
// load with a tail around 8 hours.
//
// Accepts --sweep-threads=K: the 18 cells run in parallel (each cell generates
// its own trace and simulator, nothing is shared) and the table is printed
// afterwards in cell order, so the output is byte-identical for every K.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

namespace silica {
namespace {

void Fig9(int sweep_threads) {
  // Fully populated library: fill the default 7 storage racks.
  LibraryConfig lib;
  const auto capacity = static_cast<uint64_t>(lib.storage_slots());
  // Leave room for platter-set redundancy (16+3 overhead).
  const uint64_t info_platters = capacity * 16 / 19;

  std::printf("full library: %llu platters (%llu information)\n\n",
              static_cast<unsigned long long>(capacity),
              static_cast<unsigned long long>(info_platters));
  std::printf("%-14s %12s %12s %12s\n", "reads/sec", "30 MB/s", "60 MB/s",
              "120 MB/s");
  const std::vector<double> rates = {0.3, 0.8, 1.6, 2.4, 3.2, 4.0};
  const std::vector<double> mbps_list = {30.0, 60.0, 120.0};
  const auto tails = RunSweep<std::string>(
      rates.size() * mbps_list.size(), sweep_threads, [&](size_t i) {
        const double rate = rates[i / mbps_list.size()];
        const double mbps = mbps_list[i % mbps_list.size()];
        const auto trace = GenerateTrace(
            TraceProfile::SteadyPoisson(rate, 100.0 * kMB, 42), info_platters);
        auto config =
            BaseConfig(LibraryConfig::Policy::kPartitioned, trace, info_platters);
        config.library.drive_throughput_mbps = mbps;
        const auto result = SimulateLibrary(config, trace.requests);
        return Tail(result);
      });
  for (size_t r = 0; r < rates.size(); ++r) {
    std::printf("%-14.1f", rates[r]);
    for (size_t m = 0; m < mbps_list.size(); ++m) {
      std::printf(" %12s", tails[r * mbps_list.size() + m].c_str());
    }
    std::printf("\n");
  }
  std::printf("\ncontext: the simulated early deployment sees ~0.3 reads/s per\n"
              "library; with 5%% periodic deletion and a 10%% cool-down rate the\n"
              "projected rate 9 age-folds out is ~1.6 reads/s (paper: ~8 h tail\n"
              "at 60 MB/s for that load). Aging libraries can add read racks.\n");
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  int sweep_threads = 1;
  silica::FlagSet flags("bench_fig9_full_library",
                        "Figure 9: full library under steady Poisson load.");
  flags.Int("sweep-threads", &sweep_threads,
            "threads running the sweep cells; the table is identical for "
            "every value");
  return silica::RunBench(argc, argv, flags, [&] {
    silica::Header(
        "Figure 9: full library, steady Poisson load (20 drives, 20 shuttles)");
    silica::Fig9(sweep_threads);
    return 0;
  });
}
