// Data-plane parallelism: ParallelFor semantics, ThreadPool lifecycle, the CSR
// LDPC decoder's bit-identity against the original vector-of-vectors min-sum
// implementation, the Build cache, and thread-count invariance of the pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <latch>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/data_pipeline.h"
#include "core/platter_repair.h"
#include "ecc/bits.h"
#include "ecc/ldpc.h"
#include "telemetry/telemetry.h"

namespace silica {
namespace {

// ---------- ParallelFor ----------

std::vector<uint64_t> RunParallelSquares(ThreadPool* pool, size_t n) {
  std::vector<uint64_t> results(n, 0);
  ParallelFor(pool, n, [&](size_t i) { results[i] = i * i + 1; });
  return results;
}

TEST(ParallelFor, IdenticalResultsAcrossThreadCounts) {
  const size_t n = 1000;
  const auto serial = RunParallelSquares(nullptr, n);
  for (size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    EXPECT_EQ(RunParallelSquares(&pool, n), serial) << workers << " workers";
  }
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 777;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(&pool, n, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, PropagatesWorkerExceptions) {
  ThreadPool pool(4);
  const size_t n = 100;
  std::vector<uint8_t> ran(n, 0);
  EXPECT_THROW(ParallelFor(&pool, n,
                           [&](size_t i) {
                             if (i == 37) {
                               throw std::runtime_error("injected");
                             }
                             ran[i] = 1;
                           }),
               std::runtime_error);
  // Every chunk other than the throwing one runs to completion; within the
  // throwing chunk, indices after the throw are skipped. So the gap is confined
  // to one chunk's worth of indices starting at the throw site.
  const size_t chunk = (n + pool.size() * 4 - 1) / (pool.size() * 4);
  size_t skipped = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!ran[i]) {
      ++skipped;
      EXPECT_GE(i, 37u) << "index before the throw site did not run";
      EXPECT_LT(i, 37 + chunk) << "index outside the throwing chunk did not run";
    }
  }
  EXPECT_GE(skipped, 1u);  // at least the throwing index itself
  EXPECT_LE(skipped, chunk);
}

TEST(ParallelFor, ExceptionResultsMatchSerialBehavior) {
  // The same injected exception must surface no matter the worker count.
  for (size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    EXPECT_THROW(
        ParallelFor(&pool, 64,
                    [](size_t i) {
                      if (i % 17 == 3) {
                        throw std::invalid_argument("boom");
                      }
                    }),
        std::invalid_argument)
        << workers << " workers";
  }
}

TEST(ParallelFor, NestedCallFromWorkerDegradesInline) {
  ThreadPool pool(2);
  std::vector<uint64_t> outer(8, 0);
  ParallelFor(&pool, outer.size(), [&](size_t i) {
    // A nested fan-out on a saturated pool would deadlock if it queued; it must
    // run inline on the worker instead.
    std::vector<uint64_t> inner(16, 0);
    ParallelFor(&pool, inner.size(), [&](size_t j) { inner[j] = j; });
    outer[i] = std::accumulate(inner.begin(), inner.end(), uint64_t{0});
  });
  for (uint64_t v : outer) {
    EXPECT_EQ(v, 120u);
  }
}

TEST(ParallelFor, CompletesWhileEveryWorkerIsBusy) {
  // Declared before the pool so they outlive the workers parked on them.
  std::latch parked(2);
  std::latch release(1);
  ThreadPool pool(2);
  for (int w = 0; w < 2; ++w) {
    pool.Submit([&] {
      parked.count_down();
      release.wait();
    });
  }
  parked.wait();
  // Both workers are parked, so no helper can start: the caller must claim
  // every chunk itself and return without waiting on the queued helpers.
  std::vector<int> hits(64, 0);
  ParallelFor(&pool, hits.size(), [&](size_t i) { ++hits[i]; });
  EXPECT_EQ(hits, std::vector<int>(64, 1));
  release.count_down();
}

// ---------- ThreadPool lifecycle ----------

TEST(ThreadPoolLifecycle, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.Submit([] {}).get();
  pool.Shutdown();
  EXPECT_THROW(pool.Submit([] {}), std::runtime_error);
  pool.Shutdown();  // idempotent
}

TEST(ThreadPoolLifecycle, WorkerExceptionReachesCaller) {
  ThreadPool pool(2);
  auto future = pool.Submit([] { throw std::logic_error("from worker"); });
  EXPECT_THROW(future.get(), std::logic_error);
  // The pool survives a throwing job.
  auto ok = pool.Submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPoolLifecycle, SizeReportsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.num_threads(), 3u);
  EXPECT_FALSE(pool.OnWorkerThread());
  std::atomic<bool> on_worker{false};
  pool.Submit([&] { on_worker = pool.OnWorkerThread(); }).get();
  EXPECT_TRUE(on_worker.load());
}

// ---------- LDPC: CSR decoder vs the original implementation ----------

// The pre-CSR decoder, verbatim: vector-of-vectors adjacency, per-check message
// buffers, and a full syndrome sweep per iteration. Used as the bit-exactness
// oracle for the flattened implementation.
struct ReferenceDecodeResult {
  bool ok = false;
  int iterations = 0;
  std::vector<uint8_t> codeword;
};

ReferenceDecodeResult ReferenceDecode(
    const std::vector<std::vector<uint32_t>>& check_to_var, size_t n,
    std::span<const float> llr, int max_iterations) {
  constexpr float kNormalization = 0.75f;
  ReferenceDecodeResult result;
  result.codeword.assign(n, 0);

  std::vector<std::vector<float>> check_msg(check_to_var.size());
  for (size_t c = 0; c < check_to_var.size(); ++c) {
    check_msg[c].assign(check_to_var[c].size(), 0.0f);
  }
  std::vector<float> posterior(llr.begin(), llr.end());

  auto hard_decide = [&] {
    for (size_t v = 0; v < n; ++v) {
      result.codeword[v] = posterior[v] < 0.0f ? 1 : 0;
    }
  };
  auto syndrome_ok = [&] {
    for (const auto& vars : check_to_var) {
      uint8_t parity = 0;
      for (uint32_t v : vars) {
        parity ^= result.codeword[v];
      }
      if (parity) {
        return false;
      }
    }
    return true;
  };

  hard_decide();
  if (syndrome_ok()) {
    result.ok = true;
    return result;
  }

  for (int iter = 1; iter <= max_iterations; ++iter) {
    for (size_t c = 0; c < check_to_var.size(); ++c) {
      const auto& vars = check_to_var[c];
      auto& msgs = check_msg[c];
      float min1 = std::numeric_limits<float>::max();
      float min2 = std::numeric_limits<float>::max();
      size_t min_index = 0;
      int sign_product = 1;
      for (size_t e = 0; e < vars.size(); ++e) {
        const float v2c = posterior[vars[e]] - msgs[e];
        const float mag = std::fabs(v2c);
        if (v2c < 0.0f) {
          sign_product = -sign_product;
        }
        if (mag < min1) {
          min2 = min1;
          min1 = mag;
          min_index = e;
        } else if (mag < min2) {
          min2 = mag;
        }
      }
      for (size_t e = 0; e < vars.size(); ++e) {
        const float v2c = posterior[vars[e]] - msgs[e];
        const float mag = (e == min_index) ? min2 : min1;
        int sign = sign_product;
        if (v2c < 0.0f) {
          sign = -sign;
        }
        const float new_msg = kNormalization * static_cast<float>(sign) * mag;
        posterior[vars[e]] = v2c + new_msg;
        msgs[e] = new_msg;
      }
    }
    hard_decide();
    result.iterations = iter;
    if (syndrome_ok()) {
      result.ok = true;
      return result;
    }
  }
  return result;
}

std::vector<std::vector<uint32_t>> AdjacencyFromCsr(const LdpcCode& code) {
  const auto offsets = code.check_offsets();
  const auto vars = code.check_vars();
  std::vector<std::vector<uint32_t>> check_to_var(code.num_checks());
  for (size_t c = 0; c < check_to_var.size(); ++c) {
    check_to_var[c].assign(vars.begin() + offsets[c], vars.begin() + offsets[c + 1]);
  }
  return check_to_var;
}

TEST(LdpcCsr, DecodeBitIdenticalToReferenceOn50Draws) {
  const auto code = LdpcCode::Build({.block_bits = 512, .rate = 0.75,
                                     .column_weight = 3, .seed = 5});
  const auto check_to_var = AdjacencyFromCsr(code);

  Rng rng(1234);
  for (int draw = 0; draw < 50; ++draw) {
    // A random codeword carried over a noisy BPSK-ish channel: LLR magnitude ~2
    // with unit-ish noise leaves some draws needing several iterations and some
    // failing outright — both paths must match exactly.
    std::vector<uint8_t> info(code.k());
    for (auto& b : info) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 1));
    }
    const auto codeword = code.Encode(info);
    std::vector<float> llr(code.n());
    const double sigma = 0.7 + 0.02 * draw;  // sweep into the failure region
    for (size_t i = 0; i < llr.size(); ++i) {
      const double clean = codeword[i] ? -2.0 : 2.0;
      llr[i] = static_cast<float>(clean + rng.Normal(0.0, sigma));
    }

    const auto fast = code.Decode(llr, 50);
    const auto ref = ReferenceDecode(check_to_var, code.n(), llr, 50);
    ASSERT_EQ(fast.ok, ref.ok) << "draw " << draw;
    ASSERT_EQ(fast.iterations, ref.iterations) << "draw " << draw;
    ASSERT_EQ(fast.codeword, ref.codeword) << "draw " << draw;
  }
}

TEST(LdpcCsr, PackedEncodeMatchesByteEncode) {
  const auto code = LdpcCode::Build({.block_bits = 512, .rate = 0.75,
                                     .column_weight = 3, .seed = 5});
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<uint8_t> info(code.k());
    std::vector<uint64_t> packed(code.info_words(), 0);
    for (size_t j = 0; j < info.size(); ++j) {
      info[j] = static_cast<uint8_t>(rng.UniformInt(0, 1));
      if (info[j]) {
        packed[j / 64] |= 1ull << (j % 64);
      }
    }
    const auto codeword = code.Encode(info);
    const auto packed_codeword = code.EncodePacked(packed);
    ASSERT_EQ(packed_codeword.size(), code.codeword_words());
    for (size_t i = 0; i < code.n(); ++i) {
      ASSERT_EQ((packed_codeword[i / 64] >> (i % 64)) & 1, uint64_t{codeword[i]})
          << "bit " << i;
    }
    EXPECT_TRUE(code.CheckSyndrome(codeword));
    EXPECT_TRUE(code.CheckSyndromePacked(packed_codeword));

    // Flip one bit: both syndrome views must reject.
    auto corrupted = packed_codeword;
    corrupted[0] ^= 1ull;
    EXPECT_FALSE(code.CheckSyndromePacked(corrupted));
  }
}

TEST(LdpcCsr, PackedBitsToSymbolsMatchesByteExpansion) {
  Rng rng(31);
  for (int bits_per_symbol : {1, 2, 3, 4, 8, 16}) {
    const size_t num_bits = 960;  // divisible by all tested symbol widths
    std::vector<uint64_t> words((num_bits + 63) / 64);
    for (auto& w : words) {
      w = rng.NextU64();
    }
    std::vector<uint8_t> bits(num_bits);
    for (size_t i = 0; i < num_bits; ++i) {
      bits[i] = static_cast<uint8_t>((words[i / 64] >> (i % 64)) & 1);
    }
    EXPECT_EQ(PackedBitsToSymbols(words, num_bits, bits_per_symbol),
              BitsToSymbols(bits, bits_per_symbol))
        << bits_per_symbol << " bits/symbol";
  }
}

TEST(LdpcBuildCache, HitReturnsSameMatrix) {
  LdpcCode::ClearBuildCache();
  const LdpcCode::Config config{.block_bits = 256, .rate = 0.75,
                                .column_weight = 3, .seed = 9};
  const auto first = LdpcCode::Build(config);
  auto stats = LdpcCode::GetBuildCacheStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);

  const auto second = LdpcCode::Build(config);
  stats = LdpcCode::GetBuildCacheStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);

  // The cached copy is the same code: same shape, same adjacency, same encoder.
  ASSERT_EQ(second.n(), first.n());
  ASSERT_EQ(second.k(), first.k());
  EXPECT_TRUE(std::equal(first.check_offsets().begin(), first.check_offsets().end(),
                         second.check_offsets().begin(),
                         second.check_offsets().end()));
  EXPECT_TRUE(std::equal(first.check_vars().begin(), first.check_vars().end(),
                         second.check_vars().begin(), second.check_vars().end()));
  std::vector<uint8_t> info(first.k());
  for (size_t j = 0; j < info.size(); ++j) {
    info[j] = static_cast<uint8_t>(j % 2);
  }
  EXPECT_EQ(first.Encode(info), second.Encode(info));

  // A different seed is a different cache entry.
  auto other = config;
  other.seed = 10;
  (void)LdpcCode::Build(other);
  stats = LdpcCode::GetBuildCacheStats();
  EXPECT_EQ(stats.misses, 2u);
}

// ---------- DataPlane: thread-count invariance ----------

std::vector<FileData> PipelineFiles(Rng& rng) {
  std::vector<FileData> files;
  FileData f;
  f.file_id = 1;
  f.name = "invariance";
  f.bytes.resize(20000);
  for (auto& b : f.bytes) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  files.push_back(std::move(f));
  return files;
}

void ExpectSameGlass(const GlassPlatter& a, const GlassPlatter& b,
                     const MediaGeometry& g, const std::string& what) {
  for (int t = 0; t < g.tracks_per_platter(); ++t) {
    for (int s = 0; s < g.sectors_per_track(); ++s) {
      const auto x = a.SectorSymbols({t, s});
      const auto y = b.SectorSymbols({t, s});
      ASSERT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()))
          << what << ", track " << t << " sector " << s;
    }
  }
}

// Everything one seeded pass through the data plane produces: a 2+2 platter
// set, pristine reads and verification, then verification and repair of an
// aged copy of the first platter.
struct DataPlaneRun {
  std::vector<WrittenPlatter> info;
  std::vector<WrittenPlatter> redundancy;
  std::vector<std::optional<std::vector<uint8_t>>> track0;
  std::optional<std::vector<uint8_t>> file;
  VerifyReport pristine;
  VerifyReport aged;
  ReadStats aged_track1;  // the large-group track read on its own
  PlatterRepairOutcome repair;
  uint64_t read_rng_next = 0;  // the read stream's next draw after all of it
};

DataPlaneRun RunDataPlane(DataPlane& plane, size_t workers) {
  ThreadPool pool(std::max<size_t>(workers, 1));
  plane.SetThreadPool(workers > 0 ? &pool : nullptr);
  const MediaGeometry& g = plane.geometry();
  DataPlaneRun run;
  PlatterWriter writer(plane);
  Rng write_rng(4242);
  Rng file_rng(1);
  const auto files = PipelineFiles(file_rng);
  run.info.push_back(writer.WritePlatter(1, files, write_rng));
  run.info.push_back(writer.WritePlatter(2, files, write_rng));
  const PlatterSetCodec codec(plane, {.info = 2, .redundancy = 2});
  Rng set_rng(5151);
  run.redundancy =
      codec.EncodeRedundancyPlatters({&run.info[0], &run.info[1]}, 100, set_rng);

  PlatterReader reader(plane);
  PlatterVerifier verifier(plane);
  Rng rng(77);
  Rng expected = rng;
  run.track0 = reader.ReadTrackPayloads(run.info[0].platter, 0, rng);
  expected.NextU64();
  EXPECT_EQ(Rng(rng).NextU64(), Rng(expected).NextU64()) << "one advance per track read";
  run.file = reader.ReadFile(run.info[0].platter, run.info[0].platter.header().files[0],
                             rng);
  run.pristine = verifier.Verify(run.info[0].platter, rng);

  // Aged glass gives LDPC retries work. One blanked sector of track 2 needs
  // within-track NC, and R_t + 1 blanked sectors of track 1 need the large
  // group, or the platter set where an aged group peer fails too. A verify
  // pass still advances the stream once per track.
  GlassPlatter aged = run.info[0].platter;
  aged.AddAgeStress(1.8);
  std::vector<size_t> all(static_cast<size_t>(g.voxels_per_sector()));
  std::iota(all.begin(), all.end(), size_t{0});
  aged.Erode({2, 0}, all);
  for (int s = 0; s <= g.redundancy_sectors_per_track; ++s) {
    aged.Erode({1, s}, all);
  }
  expected = rng;
  run.aged = verifier.Verify(aged, rng);
  for (int t = 0; t < g.tracks_per_platter(); ++t) {
    expected.NextU64();
  }
  EXPECT_EQ(Rng(rng).NextU64(), Rng(expected).NextU64()) << "one advance per track read";
  expected = rng;
  (void)reader.ReadTrackPayloads(aged, 1, rng, &run.aged_track1);
  expected.NextU64();
  EXPECT_EQ(Rng(rng).NextU64(), Rng(expected).NextU64()) << "one advance per track read";
  run.repair = PlatterRepairer(plane).Repair(
      aged, &codec, {&run.info[1].platter}, {1},
      {&run.redundancy[0].platter, &run.redundancy[1].platter}, {0, 1}, 0, rng);
  run.read_rng_next = rng.NextU64();
  plane.SetThreadPool(nullptr);
  return run;
}

void ExpectSameReport(const VerifyReport& a, const VerifyReport& b,
                      const std::string& what) {
  EXPECT_EQ(a.sectors_total, b.sectors_total) << what;
  EXPECT_EQ(a.sector_erasures, b.sector_erasures) << what;
  EXPECT_EQ(a.track_nc_recoveries, b.track_nc_recoveries) << what;
  EXPECT_EQ(a.large_nc_recoveries, b.large_nc_recoveries) << what;
  EXPECT_EQ(a.unrecoverable_sectors, b.unrecoverable_sectors) << what;
  EXPECT_EQ(a.durable, b.durable) << what;
}

// Runs the data plane with no pool, checks that this reference run reads
// correctly and exercises every repair tier it can, and returns it.
DataPlaneRun InlineReferenceRun(DataPlane& plane) {
  const MediaGeometry& g = plane.geometry();
  DataPlaneRun inline_run = RunDataPlane(plane, 0);
  Rng file_rng(1);
  const auto files = PipelineFiles(file_rng);
  for (size_t s = 0; s < static_cast<size_t>(g.info_sectors_per_track); ++s) {
    EXPECT_TRUE(inline_run.track0[s].has_value()) << s;
    if (inline_run.track0[s].has_value()) {
      EXPECT_EQ(*inline_run.track0[s], inline_run.info[0].payloads[0][s]) << s;
    }
  }
  EXPECT_EQ(inline_run.file, files[0].bytes);
  EXPECT_TRUE(inline_run.pristine.durable);
  EXPECT_GT(inline_run.aged.large_nc_recoveries, 0u);
  EXPECT_TRUE(inline_run.aged_track1.used_large_group);
  const RepairLedger& ledger = inline_run.repair.ledger;
  EXPECT_TRUE(ledger.Conserves());
  for (int tier = 0; tier < kNumRepairTiers; ++tier) {
    EXPECT_GT(ledger.repaired[tier], 0u) << "tier " << tier;
  }
  EXPECT_TRUE(inline_run.repair.data_intact);
  EXPECT_TRUE(inline_run.repair.rewritten.has_value());
  return inline_run;
}

// Same glass, payloads, reports and repair ledgers as the reference run.
void ExpectSameRun(const DataPlaneRun& run, const DataPlaneRun& inline_run,
                   const MediaGeometry& g, const std::string& what) {
  for (size_t p = 0; p < run.info.size(); ++p) {
    ExpectSameGlass(inline_run.info[p].platter, run.info[p].platter, g,
                    what + ", info platter " + std::to_string(p));
  }
  ASSERT_EQ(run.redundancy.size(), 2u);
  for (size_t r = 0; r < run.redundancy.size(); ++r) {
    ExpectSameGlass(inline_run.redundancy[r].platter, run.redundancy[r].platter, g,
                    what + ", redundancy platter " + std::to_string(r));
  }
  EXPECT_EQ(run.track0, inline_run.track0) << what;
  EXPECT_EQ(run.file, inline_run.file) << what;
  ExpectSameReport(run.pristine, inline_run.pristine, what + ", pristine verify");
  ExpectSameReport(run.aged, inline_run.aged, what + ", aged verify");
  const ReadStats& a = run.aged_track1;
  const ReadStats& b = inline_run.aged_track1;
  EXPECT_EQ(std::tie(a.sectors_read, a.ldpc_failures, a.track_nc_recoveries,
                     a.large_nc_recoveries, a.ldpc_retry_recoveries, a.recovery_reads,
                     a.used_large_group),
            std::tie(b.sectors_read, b.ldpc_failures, b.track_nc_recoveries,
                     b.large_nc_recoveries, b.ldpc_retry_recoveries, b.recovery_reads,
                     b.used_large_group))
      << what << ", aged track 1 stats";
  const RepairLedger& ledger = inline_run.repair.ledger;
  EXPECT_EQ(run.repair.ledger.detected, ledger.detected) << what;
  for (int tier = 0; tier < kNumRepairTiers; ++tier) {
    EXPECT_EQ(run.repair.ledger.repaired[tier], ledger.repaired[tier])
        << what << ", tier " << tier;
  }
  EXPECT_EQ(run.repair.ledger.unrecoverable, ledger.unrecoverable) << what;
  EXPECT_EQ(run.repair.data_intact, inline_run.repair.data_intact) << what;
  ASSERT_TRUE(run.repair.rewritten.has_value()) << what;
  ASSERT_TRUE(inline_run.repair.rewritten.has_value()) << what;
  ExpectSameGlass(inline_run.repair.rewritten->platter, run.repair.rewritten->platter,
                  g, what + ", rewritten platter");
  EXPECT_EQ(run.read_rng_next, inline_run.read_rng_next) << what;
}

// Every sector draws noise from a fork of its address and every write or
// track read advances the caller once, so no pool and every pool size give
// the same glass, payloads, reports and repair ledgers.

TEST(DataPlaneParallel, SerialPathMatchesDetachedPool) {
  // Running inline with no pool and fanning out over a single worker are the
  // same computation.
  DataPlane plane{DataPlaneConfig{}};
  const DataPlaneRun inline_run = InlineReferenceRun(plane);
  ExpectSameRun(RunDataPlane(plane, 1), inline_run, plane.geometry(), "1 worker");
}

TEST(DataPlaneParallel, WriteAndReadIdenticalForAnyWorkerCountAboveOne) {
  DataPlane plane{DataPlaneConfig{}};
  const DataPlaneRun inline_run = InlineReferenceRun(plane);
  for (const size_t workers : {2u, 4u}) {
    ExpectSameRun(RunDataPlane(plane, workers), inline_run, plane.geometry(),
                  std::to_string(workers) + " workers");
  }
}

TEST(DataPlaneParallel, DecodeGaugesSurfaceInMetricsSnapshot) {
  // The read path times its decode loop and publishes throughput gauges into
  // the attached metrics registry — the same registry --metrics-out snapshots.
  DataPlane plane{DataPlaneConfig{}};
  Telemetry telemetry;
  plane.SetTelemetry(&telemetry);

  Rng rng(4242);
  PlatterWriter writer(plane);
  Rng file_rng(1);
  auto written = writer.WritePlatter(1, PipelineFiles(file_rng), rng);

  PlatterReader reader(plane);
  Rng read_rng(77);
  (void)reader.ReadTrackPayloads(written.platter, 0, read_rng, nullptr);

  EXPECT_GT(telemetry.metrics.GetGauge("decode_wall_seconds").value(), 0.0);
  EXPECT_GT(telemetry.metrics.GetGauge("decode_sectors_per_second").value(), 0.0);
  const std::string prom = telemetry.metrics.ToPrometheusText();
  EXPECT_NE(prom.find("decode_wall_seconds"), std::string::npos);
  EXPECT_NE(prom.find("decode_sectors_per_second"), std::string::npos);
}

// ---------- DataPlane: lazy ReadFile against full-track reads ----------

// ReadFile decodes only a file's own sectors; ReadTrackPayloads decodes whole
// tracks. For each file, every touched track is read both ways from the same Rng
// state: the bytes must match, and both reads must leave the stream in the same
// state. The whole-file read must then equal the chain of its per-track reads
// exactly.
struct LazyReadTally {
  int fallbacks = 0;      // track reads where a wanted sector failed LDPC
  int large_group = 0;    // track reads where the full read ran the large group
  int unrecoverable = 0;  // files ReadFile reports lost
};

void ExpectLazyReadsMatchFullTrackReads(const DataPlane& plane,
                                        const GlassPlatter& platter, Rng& rng,
                                        LazyReadTally& tally) {
  const MediaGeometry& g = plane.geometry();
  const uint64_t payload_bytes = plane.sector_payload_bytes();
  const uint64_t per_track = static_cast<uint64_t>(g.info_sectors_per_track);
  PlatterReader reader(plane);
  for (const PlatterFileEntry& entry : platter.header().files) {
    const uint64_t need =
        std::max<uint64_t>(1, (entry.size_bytes + payload_bytes - 1) / payload_bytes);
    const uint64_t first = entry.start_sector_index;
    const Rng start = rng;
    std::optional<std::vector<uint8_t>> chained = std::vector<uint8_t>();
    for (uint64_t lo = first, hi = 0; lo < first + need && chained; lo = hi) {
      hi = std::min(first + need, (lo / per_track + 1) * per_track);
      const uint64_t byte_lo = (lo - first) * payload_bytes;
      const uint64_t byte_hi = std::min((hi - first) * payload_bytes, entry.size_bytes);
      const PlatterFileEntry piece{.file_id = entry.file_id,
                                   .name = entry.name,
                                   .start_sector_index = lo,
                                   .size_bytes = byte_hi - byte_lo};

      Rng full_rng = rng;
      ReadStats full_stats;
      const int track = SerpentineSectorAddress(g, lo).track;
      const auto payloads = reader.ReadTrackPayloads(platter, track, full_rng, &full_stats);
      std::optional<std::vector<uint8_t>> expected = std::vector<uint8_t>();
      for (uint64_t i = lo; i < hi; ++i) {
        const auto& payload =
            payloads[static_cast<size_t>(SerpentineSectorAddress(g, i).sector)];
        if (!payload) {
          expected.reset();
          break;
        }
        const uint64_t len =
            std::min(payload_bytes, entry.size_bytes - (i - first) * payload_bytes);
        expected->insert(expected->end(), payload->begin(),
                         payload->begin() + static_cast<long>(len));
      }

      ReadStats lazy_stats;
      const auto got = reader.ReadFile(platter, piece, rng, &lazy_stats);
      ASSERT_EQ(got, expected) << "file " << entry.file_id << " track " << track;
      tally.fallbacks += lazy_stats.sectors_read > hi - lo ? 1 : 0;
      tally.large_group += full_stats.used_large_group ? 1 : 0;
      EXPECT_EQ(Rng(rng).NextU64(), full_rng.NextU64())
          << "file " << entry.file_id << " track " << track;

      if (!got) {
        chained.reset();
      } else {
        chained->insert(chained->end(), got->begin(), got->end());
      }
    }
    tally.unrecoverable += chained ? 0 : 1;

    Rng whole_rng = start;
    ASSERT_EQ(reader.ReadFile(platter, entry, whole_rng), chained)
        << "file " << entry.file_id;
    EXPECT_EQ(whole_rng.NextU64(), Rng(rng).NextU64()) << "file " << entry.file_id;
  }
}

TEST(DataPlaneParallel, LazyReadFileMatchesFullTrackReads) {
  enum class Damage { kPristine, kAged, kEroded };
  for (const Damage damage : {Damage::kPristine, Damage::kAged, Damage::kEroded}) {
    const char* damage_name = damage == Damage::kPristine ? "pristine"
                              : damage == Damage::kAged   ? "aged"
                                                          : "eroded";
    DataPlane plane{DataPlaneConfig{}};
    const MediaGeometry& g = plane.geometry();
    Rng file_rng(3);
    std::vector<FileData> files;
    // 1 sector, sub-track objects, and files spilling across track boundaries.
    for (const size_t size : {100u, 1200u, 8000u, 20000u, 700u, 30000u, 4000u}) {
      FileData f;
      f.file_id = files.size() + 1;
      f.name = "lazy-" + std::to_string(f.file_id);
      f.bytes.resize(size);
      for (auto& b : f.bytes) {
        b = static_cast<uint8_t>(file_rng.UniformInt(0, 255));
      }
      files.push_back(std::move(f));
    }
    Rng write_rng(5);
    auto written = PlatterWriter(plane).WritePlatter(1, files, write_rng);
    if (damage == Damage::kAged) {
      // Near the decoder's cliff: ~10% of sectors fail LDPC, some tracks
      // need the large group and some data is lost.
      written.platter.AddAgeStress(1.88);
    }
    if (damage == Damage::kEroded) {
      // Blank whole sectors so LDPC fails wherever the write noise fell: the
      // first sector of the 8000-byte file (within-track NC clears it), and
      // R_t + 1 sectors of a track wholly inside the 30000-byte file (only the
      // large group can).
      const auto blank = [&](uint64_t serpentine_index) {
        const SectorAddress address = SerpentineSectorAddress(g, serpentine_index);
        std::vector<size_t> all(static_cast<size_t>(g.voxels_per_sector()));
        std::iota(all.begin(), all.end(), size_t{0});
        written.platter.Erode(address, all);
      };
      const auto& entries = written.platter.header().files;
      blank(entries[2].start_sector_index);
      const uint64_t per_track = static_cast<uint64_t>(g.info_sectors_per_track);
      const uint64_t track_start = (entries[5].start_sector_index / per_track + 1) * per_track;
      ASSERT_LE(track_start + per_track, entries[6].start_sector_index);
      for (int k = 0; k <= g.redundancy_sectors_per_track; ++k) {
        blank(track_start + static_cast<uint64_t>(k));
      }
    }

    for (const size_t workers : {0u, 1u, 4u}) {
      ThreadPool pool(std::max<size_t>(workers, 1));
      plane.SetThreadPool(workers > 0 ? &pool : nullptr);
      SCOPED_TRACE(std::string(damage_name) + " platter, " + std::to_string(workers) +
                   " workers");
      LazyReadTally tally;
      Rng rng(99);
      ExpectLazyReadsMatchFullTrackReads(plane, written.platter, rng, tally);
      if (damage == Damage::kPristine) {
        EXPECT_EQ(tally.fallbacks, 0);
        // A 1-sector file decodes exactly one sector, not the whole track.
        Telemetry telemetry;
        plane.SetTelemetry(&telemetry);
        ReadStats stats;
        ASSERT_TRUE(PlatterReader(plane).ReadFile(
            written.platter, written.platter.header().files[0], rng, &stats));
        EXPECT_EQ(stats.sectors_read, 1u);
        EXPECT_EQ(telemetry.metrics.GetCounter("decode_sectors_read_total").value(),
                  1.0);
        plane.SetTelemetry(nullptr);
      } else {
        EXPECT_GT(tally.fallbacks, 0);
        EXPECT_GT(tally.large_group, 0);
      }
      if (damage == Damage::kAged) {
        EXPECT_GT(tally.unrecoverable, 0);
      } else {
        EXPECT_EQ(tally.unrecoverable, 0);
      }
      plane.SetThreadPool(nullptr);
    }
  }
}

// ---------- DataPlane: a multi-file read pass against a loop of ReadFile ----------

// ReadFiles reads a batch as one pass; it must return, and leave the stream
// and the stats where, a loop of ReadFile calls over the same entries would.
// A file lost before its last track makes ReadFile stop there, so the batch
// re-plans the files after it; the aged platter has such a file, and the
// first batch reads it with files after it.
TEST(DataPlaneParallel, ReadFilesMatchesSequentialReadFile) {
  enum class Damage { kPristine, kAged, kEroded };
  for (const Damage damage : {Damage::kPristine, Damage::kAged, Damage::kEroded}) {
    DataPlane plane{DataPlaneConfig{}};
    const MediaGeometry& g = plane.geometry();
    Rng file_rng(3);
    std::vector<FileData> files;
    for (const size_t size : {100u, 1200u, 8000u, 20000u, 700u, 30000u, 4000u}) {
      FileData f;
      f.file_id = files.size() + 1;
      f.name = "batch-" + std::to_string(f.file_id);
      f.bytes.resize(size);
      for (auto& b : f.bytes) {
        b = static_cast<uint8_t>(file_rng.UniformInt(0, 255));
      }
      files.push_back(std::move(f));
    }
    Rng write_rng(5);
    auto written = PlatterWriter(plane).WritePlatter(1, files, write_rng);
    const auto& entries = written.platter.header().files;
    if (damage == Damage::kAged) {
      written.platter.AddAgeStress(1.88);
    }
    if (damage == Damage::kEroded) {
      // As in LazyReadFileMatchesFullTrackReads: one sector within-track NC
      // clears, and R_t + 1 sectors of one track only the large group can.
      std::vector<size_t> all(static_cast<size_t>(g.voxels_per_sector()));
      std::iota(all.begin(), all.end(), size_t{0});
      written.platter.Erode(SerpentineSectorAddress(g, entries[2].start_sector_index), all);
      const uint64_t per_track = static_cast<uint64_t>(g.info_sectors_per_track);
      const uint64_t track_start = (entries[5].start_sector_index / per_track + 1) * per_track;
      for (int k = 0; k <= g.redundancy_sectors_per_track; ++k) {
        written.platter.Erode(
            SerpentineSectorAddress(g, track_start + static_cast<uint64_t>(k)), all);
      }
    }
    const uint64_t payload_bytes = plane.sector_payload_bytes();
    const uint64_t per_track = static_cast<uint64_t>(g.info_sectors_per_track);
    // Tracks a file's extent touches: the stream advances a full read makes.
    const auto tracks_of = [&](const PlatterFileEntry& entry) {
      const uint64_t need =
          std::max<uint64_t>(1, (entry.size_bytes + payload_bytes - 1) / payload_bytes);
      const uint64_t first = entry.start_sector_index;
      return (first + need - 1) / per_track - first / per_track + 1;
    };

    for (const size_t workers : {0u, 1u, 4u}) {
      ThreadPool pool(std::max<size_t>(workers, 1));
      plane.SetThreadPool(workers > 0 ? &pool : nullptr);
      PlatterReader reader(plane);
      Rng pick(17);
      int mid_extent_losses = 0;
      for (int b = 0; b < 2; ++b) {
        SCOPED_TRACE("damage " + std::to_string(static_cast<int>(damage)) + ", " +
                     std::to_string(workers) + " workers, batch " + std::to_string(b));
        // Every file in platter order first, then random subsets in random order.
        std::vector<PlatterFileEntry> batch;
        for (const PlatterFileEntry& entry : entries) {
          if (b == 0 || pick.Bernoulli(0.6)) {
            batch.push_back(entry);
          }
        }
        if (b > 0) {
          pick.Shuffle(batch);
        }
        Rng batch_rng(100 + static_cast<uint64_t>(b));
        Rng loop_rng = batch_rng;
        ReadStats batch_stats;
        ReadStats loop_stats;
        const auto got = reader.ReadFiles(written.platter, batch, batch_rng, &batch_stats);
        ASSERT_EQ(got.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          Rng full = loop_rng;
          const auto want = reader.ReadFile(written.platter, batch[i], loop_rng, &loop_stats);
          EXPECT_EQ(got[i], want) << "file " << batch[i].file_id;
          for (uint64_t t = 0; t < tracks_of(batch[i]); ++t) {
            full.NextU64();
          }
          mid_extent_losses += full.NextU64() != Rng(loop_rng).NextU64() ? 1 : 0;
        }
        EXPECT_EQ(batch_rng.NextU64(), loop_rng.NextU64());
        const ReadStats& a = batch_stats;
        const ReadStats& l = loop_stats;
        EXPECT_EQ(std::tie(a.sectors_read, a.ldpc_failures, a.track_nc_recoveries,
                           a.large_nc_recoveries, a.recovery_reads, a.used_large_group),
                  std::tie(l.sectors_read, l.ldpc_failures, l.track_nc_recoveries,
                           l.large_nc_recoveries, l.recovery_reads, l.used_large_group));
      }
      if (damage == Damage::kAged) {
        EXPECT_GT(mid_extent_losses, 0);
      } else {
        EXPECT_EQ(mid_extent_losses, 0);
      }
      plane.SetThreadPool(nullptr);
    }
  }
}

}  // namespace
}  // namespace silica
