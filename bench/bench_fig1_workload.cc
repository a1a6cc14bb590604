// Figure 1: cloud archival workload characteristics.
//  (a) writes over reads per month (count and bytes);
//  (b) percentage of reads and of bytes per file-size bucket;
//  (c) tail-over-median hourly read throughput across data centers.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "workload/archive_stats.h"
#include "workload/file_size_model.h"

namespace silica {
namespace {

void Fig1a() {
  Header("Figure 1(a): writes over reads per month (6 months)");
  Rng rng(101);
  const auto months = GenerateMonthlyOps(6, rng);
  std::printf("%-8s %14s %14s\n", "month", "ops ratio", "bytes ratio");
  double ops_sum = 0.0;
  double bytes_sum = 0.0;
  for (size_t m = 0; m < months.size(); ++m) {
    std::printf("%-8zu %13.1fx %13.1fx\n", m + 1, months[m].OpsRatio(),
                months[m].BytesRatio());
    ops_sum += months[m].OpsRatio();
    bytes_sum += months[m].BytesRatio();
  }
  std::printf("%-8s %13.1fx %13.1fx   (paper averages: 174x ops, 47x bytes)\n",
              "average", ops_sum / 6.0, bytes_sum / 6.0);
}

void Fig1b() {
  Header("Figure 1(b): reads and bytes per file-size bucket");
  const FileSizeModel model;
  Rng rng(102);

  // Monte-Carlo over the paper's buckets.
  std::vector<double> bounds;
  for (const auto& bucket : model.buckets()) {
    bounds.push_back(static_cast<double>(bucket.hi));
  }
  bounds.pop_back();
  BucketHistogram counts(bounds);
  BucketHistogram bytes(bounds);
  for (int i = 0; i < 2000000; ++i) {
    const auto size = static_cast<double>(model.Sample(rng));
    counts.Add(size);
    bytes.Add(size, size);
  }

  std::printf("%-22s %10s %10s\n", "bucket", "% reads", "% bytes");
  const char* names[] = {"(0,4MiB]",       "(4,16MiB]",    "(16,64MiB]",
                         "(64,256MiB]",    "(256MiB,1GiB]", "(1,4GiB]",
                         "(4,16GiB]",      "(16,64GiB]",   "(64,256GiB]",
                         "(256GiB,1TiB]",  "(1,4TiB]",     "(4,16TiB]"};
  double small_reads = 0.0;
  double large_bytes = 0.0;
  double large_reads = 0.0;
  for (size_t b = 0; b < counts.num_buckets(); ++b) {
    std::printf("%-22s %9.2f%% %9.2f%%\n", names[b], 100.0 * counts.Fraction(b),
                100.0 * bytes.Fraction(b));
    if (b == 0) {
      small_reads = counts.Fraction(b);
    }
    if (b >= 4) {
      large_bytes += bytes.Fraction(b);
      large_reads += counts.Fraction(b);
    }
  }
  std::printf("\nreads <= 4 MiB: %.1f%%   (paper: 58.7%%)\n", 100.0 * small_reads);
  std::printf("bytes  > 256 MiB: %.1f%% from %.2f%% of reads  (paper: ~85%% from <2%%)\n",
              100.0 * large_bytes, 100.0 * large_reads);
  std::printf("mean file size: %s (full-library experiment assumes ~100 MB)\n",
              FormatBytes(static_cast<uint64_t>(model.MeanBytes())).c_str());
}

void Fig1c() {
  Header("Figure 1(c): tail over median read throughput across 30 data centers");
  Rng rng(103);
  std::vector<double> ratios;
  for (int dc = 0; dc < 30; ++dc) {
    // Data centers differ in burstiness: spread 1.5 .. 5.3 covers the paper's
    // 1e2..1e7 range of tail/median ratios.
    const double spread = 1.5 + 3.8 * dc / 29.0;
    const auto rates = GenerateHourlyReadRates(24 * 180, spread, rng);
    ratios.push_back(TailOverMedian(rates));
  }
  std::sort(ratios.rbegin(), ratios.rend());
  std::printf("%-6s %20s\n", "rank", "tail / median");
  for (size_t i = 0; i < ratios.size(); ++i) {
    std::printf("%-6zu %19.3g\n", i + 1, ratios[i]);
  }
  std::printf("\nspread: %.3g .. %.3g  (paper: up to 7 orders of magnitude)\n",
              ratios.back(), ratios.front());
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  return silica::RunBench(argc, argv, "bench_fig1_workload", "Figure 1: workload.", [] {
    silica::Fig1a();
    silica::Fig1b();
    silica::Fig1c();
    return 0;
  });
}
