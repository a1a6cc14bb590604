#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc.h"
#include "common/distributions.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/units.h"

namespace silica {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng parent(7);
  Rng child1 = parent.Fork(3);
  // Forking must not mutate the parent: the same fork again yields the same stream.
  Rng child2 = parent.Fork(3);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(child1.NextU64(), child2.NextU64());
  }
}

TEST(Rng, ForkTagsDecorrelate) {
  Rng parent(7);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(Rng, FillU64MatchesNextU64) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{6144}}) {
    Rng serial(23);
    serial.Normal();  // leaves a cached normal pending
    Rng bulk = serial;
    std::vector<uint64_t> drawn(n);
    bulk.FillU64(drawn.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(drawn[i], serial.NextU64()) << "length " << n << ", draw " << i;
    }
    // Same end state, and the pending normal survived the bulk draw.
    EXPECT_EQ(std::bit_cast<uint64_t>(bulk.Normal()),
              std::bit_cast<uint64_t>(serial.Normal()))
        << "length " << n;
    EXPECT_EQ(bulk.NextU64(), serial.NextU64()) << "length " << n;
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextDoubleInHalfOpenUnit) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  StreamingStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(rng.Normal(5.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  StreamingStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(rng.Exponential(0.5));
  }
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(23);
  StreamingStats small;
  StreamingStats large;
  for (int i = 0; i < 20000; ++i) {
    small.Add(static_cast<double>(rng.Poisson(3.0)));
    large.Add(static_cast<double>(rng.Poisson(200.0)));
  }
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 200.0, 1.0);
}

TEST(ZipfTable, SkewsTowardLowRanks) {
  Rng rng(29);
  ZipfTable table(1000, 1.1);
  uint64_t first = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (table.Sample(rng) == 0) {
      ++first;
    }
  }
  // With s=1.1 over 1000 items, rank 0 receives a double-digit share.
  EXPECT_GT(static_cast<double>(first) / trials, 0.1);
}

TEST(ZipfTable, ZeroExponentIsUniform) {
  Rng rng(31);
  ZipfTable table(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[table.Sample(rng)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 5000, 400);
  }
}

TEST(StreamingStats, MergeMatchesCombined) {
  Rng rng(37);
  StreamingStats all;
  StreamingStats a;
  StreamingStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(0, 1);
    all.Add(x);
    (i % 2 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(PercentileTracker, NearestRank) {
  PercentileTracker t;
  for (int i = 1; i <= 100; ++i) {
    t.Add(i);
  }
  EXPECT_DOUBLE_EQ(t.Percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(t.Percentile(0.999), 100.0);
  EXPECT_DOUBLE_EQ(t.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(t.Percentile(1.0), 100.0);
}

TEST(PercentileTracker, AddAfterQueryStaysCorrect) {
  PercentileTracker t;
  t.Add(10.0);
  EXPECT_DOUBLE_EQ(t.Percentile(1.0), 10.0);
  t.Add(20.0);
  EXPECT_DOUBLE_EQ(t.Percentile(1.0), 20.0);
}

TEST(PercentileTracker, MergeCombinesSamples) {
  PercentileTracker a;
  PercentileTracker b;
  for (int i = 1; i <= 50; ++i) {
    a.Add(i);
    b.Add(i + 50);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_DOUBLE_EQ(a.Percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
  // Merging after a query (sorted state) must still work.
  PercentileTracker c;
  c.Add(1000.0);
  a.Merge(c);
  EXPECT_DOUBLE_EQ(a.max(), 1000.0);
}

TEST(BucketHistogram, FileSizeBuckets) {
  BucketHistogram h({4.0, 16.0, 64.0});
  h.Add(1.0);
  h.Add(4.0);   // inclusive upper edge -> first bucket
  h.Add(5.0);
  h.Add(100.0);  // overflow bucket
  EXPECT_EQ(h.num_buckets(), 4u);
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
  EXPECT_DOUBLE_EQ(h.count(2), 0.0);
  EXPECT_DOUBLE_EQ(h.count(3), 1.0);
  EXPECT_DOUBLE_EQ(h.Fraction(0), 0.5);
}

TEST(UtilizationLedger, FractionsSumToOne) {
  UtilizationLedger ledger({"read", "verify", "idle"});
  ledger.Accrue(0, 10.0);
  ledger.Accrue(1, 70.0);
  ledger.Accrue(2, 20.0);
  EXPECT_DOUBLE_EQ(ledger.Fraction(0) + ledger.Fraction(1) + ledger.Fraction(2), 1.0);
  EXPECT_DOUBLE_EQ(ledger.Fraction(1), 0.7);
}

TEST(Crc32c, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283.
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32c(data), 0xE3069283u);
}

TEST(Crc32c, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(64, 0xAB);
  const uint32_t base = Crc32c(data);
  data[17] ^= 0x04;
  EXPECT_NE(Crc32c(data), base);
}

TEST(Crc64, DifferentInputsDiffer) {
  std::vector<uint8_t> a(32, 1);
  std::vector<uint8_t> b(32, 2);
  EXPECT_NE(Crc64(a), Crc64(b));
}

TEST(Distributions, EmpiricalInterpolatesQuantiles) {
  EmpiricalDistribution d({{0.0, 0.0}, {0.5, 1.0}, {1.0, 3.0}});
  Rng rng(41);
  StreamingStats stats;
  for (int i = 0; i < 100000; ++i) {
    const double x = d.Sample(rng);
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 3.0);
    stats.Add(x);
  }
  // Mean of the quantile function: 0.5*0.5*(0+1) + 0.5*0.5*(1+3) = 0.25 + 1.0.
  EXPECT_NEAR(stats.mean(), 1.25, 0.02);
  EXPECT_NEAR(d.Mean(), 1.25, 1e-12);
}

TEST(Distributions, LogNormalFromMedianAndQuantile) {
  // Median 0.6 s, 99.9th percentile 2 s, matching the seek benchmark (Fig 3d).
  auto d = LogNormalDistribution::FromMedianAndQuantile(0.6, 0.999, 2.0, 2.0);
  Rng rng(43);
  PercentileTracker t;
  for (int i = 0; i < 200000; ++i) {
    const double x = d.Sample(rng);
    ASSERT_LE(x, 2.0);  // clipped at the observed max
    t.Add(x);
  }
  EXPECT_NEAR(t.Percentile(0.5), 0.6, 0.02);
}

TEST(Distributions, TruncatedNormalRespectsBounds) {
  TruncatedNormalDistribution d(1.0, 5.0, 0.0, 2.0);
  Rng rng(47);
  for (int i = 0; i < 10000; ++i) {
    const double x = d.Sample(rng);
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 2.0);
  }
}

TEST(ThreadPool, RunsAllJobs) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DrainWaitsForCompletion) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(counter.load(), 20);
}

TEST(Units, Formatting) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(4 * kMiB), "4.00 MiB");
  EXPECT_EQ(FormatDuration(3900.0), "1h 05m");
}

TEST(Units, StreamSeconds) {
  // 60 MB at 60 MB/s = 1 s.
  EXPECT_DOUBLE_EQ(StreamSeconds(60 * kMB, 60.0), 1.0);
}

}  // namespace
}  // namespace silica
