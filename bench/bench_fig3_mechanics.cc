// Figure 3: mechanical latency benchmarks of the library prototype.
//  (a) horizontal shuttle motion vs distance (trapezoidal profile + 0.5 s fine tune);
//  (b) vertical motion (crabbing) distribution;
//  (c) pick and place distributions (picking ~170 ms slower);
//  (d) random seek distribution (median 0.6 s, max 2 s).
// The digital twin samples from these models; this bench prints the same summary
// statistics the paper reports so the twin's inputs can be audited.
#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "library/motion.h"

namespace silica {
namespace {

void Fig3() {
  const MotionModel motion{MotionParams{}};
  Rng rng(303);

  Header("Figure 3(a): horizontal motion time vs distance");
  std::printf("%-14s %12s %12s\n", "distance (m)", "expected (s)", "sampled (s)");
  for (double d : {0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 9.0, 12.0}) {
    StreamingStats samples;
    for (int i = 0; i < 1000; ++i) {
      samples.Add(motion.HorizontalTravelTime(d, rng));
    }
    std::printf("%-14.2f %12.2f %12.2f\n", d,
                motion.ExpectedHorizontalTravelTime(d), samples.mean());
  }
  std::printf("(fine tuning contributes a constant ~0.5 s per move)\n");

  Header("Figure 3(b): vertical motion (crabbing)");
  PercentileTracker crab;
  for (int i = 0; i < 100000; ++i) {
    crab.Add(motion.CrabTime(rng));
  }
  std::printf("median %.2f s, p86 %.2f s, max %.2f s, spread %.0f ms\n",
              crab.Percentile(0.5), crab.Percentile(0.86), crab.max(),
              1000.0 * (crab.max() - crab.min()));
  std::printf("(paper: 86%% of operations within 3 s, max 3.02 s, spread 88 ms)\n");

  Header("Figure 3(c): picking and placing");
  StreamingStats pick;
  StreamingStats place;
  for (int i = 0; i < 100000; ++i) {
    pick.Add(motion.PickTime(rng));
    place.Add(motion.PlaceTime(rng));
  }
  std::printf("pick mean %.3f s, place mean %.3f s, difference %.0f ms\n",
              pick.mean(), place.mean(), 1000.0 * (pick.mean() - place.mean()));
  std::printf("(paper: picking ~170 ms slower than placing)\n");

  Header("Figure 3(d): random seek distribution");
  PercentileTracker seek;
  for (int i = 0; i < 100000; ++i) {
    seek.Add(motion.SeekTime(rng));
  }
  std::printf("median %.2f s, p99 %.2f s, max %.2f s\n", seek.Percentile(0.5),
              seek.Percentile(0.99), seek.max());
  std::printf("(paper: median 0.6 s, maximum 2 s)\n");

  Header("Constant drive overheads");
  std::printf("mount/unmount %.1f s, fast switch %.1f s (conservative constants)\n",
              motion.MountTime(), motion.FastSwitchTime());
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  return silica::RunBench(argc, argv, "bench_fig3_mechanics", "Figure 3: prototype mechanics.", [] {
    silica::Fig3();
    return 0;
  });
}
