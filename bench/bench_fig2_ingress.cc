// Figure 2: peak over mean ingress rate vs. rolling-window aggregation time.
// At day granularity the peak is ~16x the mean; beyond 30 days it falls to ~2x,
// which is what lets Silica smooth writes through staging and provision write
// drives near the mean (Section 2 / Section 6).
#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/staging.h"
#include "workload/archive_stats.h"

namespace silica {
namespace {

void Fig2() {
  Header("Figure 2: peak over mean ingress vs aggregation window");
  Rng rng(202);
  StreamingStats pom[7];
  const int windows[] = {1, 3, 7, 14, 30, 45, 60};
  for (int trial = 0; trial < 25; ++trial) {
    const auto daily = GenerateDailyIngress(180, rng);
    for (int w = 0; w < 7; ++w) {
      pom[w].Add(PeakOverMean(daily, windows[w]));
    }
  }
  std::printf("%-14s %16s\n", "window (days)", "peak over mean");
  for (int w = 0; w < 7; ++w) {
    std::printf("%-14d %15.1fx\n", windows[w], pom[w].mean());
  }
  std::printf("\n(paper: ~16x at 1 day, dropping to ~2x beyond 30 days)\n");

  Header("Staging consequence: write provisioning per smoothing window");
  const auto daily = GenerateDailyIngress(180, rng);
  const double rate_1d = RequiredDrainRate(daily, 1);
  std::printf("%-14s %22s %12s\n", "window (days)", "drain rate (rel.)",
              "vs 1-day");
  for (int w : {1, 7, 30, 60}) {
    const double rate = RequiredDrainRate(daily, w);
    std::printf("%-14d %21.3f %11.2fx\n", w, rate / rate_1d, rate_1d / rate);
  }
  std::printf("\nsmoothing over ~30 days cuts write-drive provisioning ~an order "
              "of magnitude,\nkeeping the (cost-dominant) write drives highly "
              "utilized.\n");
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  return silica::RunBench(argc, argv, "bench_fig2_ingress", "Figure 2: ingress burstiness.", [] {
    silica::Fig2();
    return 0;
  });
}
