// Data-plane parallelism: ParallelFor semantics, ThreadPool lifecycle, the CSR
// LDPC decoder's bit-identity against the original vector-of-vectors min-sum
// implementation, the Build cache, and thread-count invariance of the pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/data_pipeline.h"
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

TEST(DataPlaneParallel, WriteAndReadIdenticalForAnyWorkerCountAboveOne) {
  // The parallel path forks a child RNG per sector, so every pool size > 1 must
  // produce the same platter and the same decoded payloads.
  DataPlane plane{DataPlaneConfig{}};
  const MediaGeometry& g = plane.geometry();

  auto write_with_pool = [&](size_t workers) {
    ThreadPool pool(workers);
    plane.SetThreadPool(&pool);
    Rng rng(4242);
    PlatterWriter writer(plane);
    Rng file_rng(1);
    auto written = writer.WritePlatter(1, PipelineFiles(file_rng), rng);
    plane.SetThreadPool(nullptr);
    return written;
  };

  const auto two = write_with_pool(2);
  const auto four = write_with_pool(4);
  ExpectSameGlass(two.platter, four.platter, g, "info platter");

  // The set's redundancy platters fan out the same way.
  auto encode_set_with_pool = [&](size_t workers) {
    ThreadPool pool(workers);
    plane.SetThreadPool(&pool);
    const PlatterSetCodec codec(plane, {.info = 2, .redundancy = 2});
    Rng rng(5151);
    auto redundancy = codec.EncodeRedundancyPlatters({&two, &four}, 100, rng);
    plane.SetThreadPool(nullptr);
    return redundancy;
  };
  const auto set_two = encode_set_with_pool(2);
  const auto set_four = encode_set_with_pool(4);
  ASSERT_EQ(set_two.size(), 2u);
  ASSERT_EQ(set_four.size(), 2u);
  for (size_t r = 0; r < set_two.size(); ++r) {
    ExpectSameGlass(set_two[r].platter, set_four[r].platter, g,
                    "redundancy platter " + std::to_string(r));
  }

  auto read_with_pool = [&](size_t workers) {
    ThreadPool pool(workers);
    plane.SetThreadPool(&pool);
    PlatterReader reader(plane);
    Rng rng(77);
    auto decoded = reader.ReadTrackPayloads(two.platter, 0, rng, nullptr);
    plane.SetThreadPool(nullptr);
    return decoded;
  };
  const auto decoded_two = read_with_pool(2);
  const auto decoded_four = read_with_pool(4);
  ASSERT_EQ(decoded_two.size(), decoded_four.size());
  for (size_t s = 0; s < decoded_two.size(); ++s) {
    ASSERT_EQ(decoded_two[s].has_value(), decoded_four[s].has_value()) << s;
    if (decoded_two[s]) {
      EXPECT_EQ(*decoded_two[s], *decoded_four[s]) << s;
    }
  }
  // Payloads decode correctly regardless of the fan-out.
  for (size_t s = 0; s < static_cast<size_t>(g.info_sectors_per_track); ++s) {
    ASSERT_TRUE(decoded_two[s].has_value()) << s;
    EXPECT_EQ(*decoded_two[s], two.payloads[0][s]) << s;
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

TEST(DataPlaneParallel, SerialPathMatchesDetachedPool) {
  // pool == nullptr and a 1-worker pool must both take the legacy serial path.
  DataPlane plane{DataPlaneConfig{}};

  auto write_serialish = [&](bool with_singleton_pool) {
    ThreadPool pool(1);
    plane.SetThreadPool(with_singleton_pool ? &pool : nullptr);
    Rng rng(4242);
    PlatterWriter writer(plane);
    Rng file_rng(1);
    auto written = writer.WritePlatter(1, PipelineFiles(file_rng), rng);
    plane.SetThreadPool(nullptr);
    return written;
  };
  const auto detached = write_serialish(false);
  const auto singleton = write_serialish(true);
  const MediaGeometry& g = plane.geometry();
  ExpectSameGlass(detached.platter, singleton.platter, g, "info platter");

  auto encode_set_serialish = [&](bool with_singleton_pool) {
    ThreadPool pool(1);
    plane.SetThreadPool(with_singleton_pool ? &pool : nullptr);
    const PlatterSetCodec codec(plane, {.info = 2, .redundancy = 2});
    Rng rng(5151);
    auto redundancy =
        codec.EncodeRedundancyPlatters({&detached, &singleton}, 100, rng);
    plane.SetThreadPool(nullptr);
    return redundancy;
  };
  const auto set_detached = encode_set_serialish(false);
  const auto set_singleton = encode_set_serialish(true);
  ASSERT_EQ(set_detached.size(), 2u);
  ASSERT_EQ(set_singleton.size(), 2u);
  for (size_t r = 0; r < set_detached.size(); ++r) {
    ExpectSameGlass(set_detached[r].platter, set_singleton[r].platter, g,
                    "redundancy platter " + std::to_string(r));
  }
}

// ---------- DataPlane: lazy ReadFile against full-track reads ----------

// ReadFile decodes only a file's own sectors; ReadTrackPayloads decodes whole
// tracks. For each file, every touched track is read both ways from the same Rng
// state: the bytes must match, and so must the stream, except when the full read
// ran large-group recovery for sectors outside the file on a track where the
// file's sectors all decoded (the lazy read has nothing to recover there). The
// whole-file read must then equal the chain of its per-track reads exactly.
struct LazyReadTally {
  int fallbacks = 0;         // track reads where a wanted sector failed LDPC
  int skipped_recovery = 0;  // track reads where only the full read ran the large group
  int unrecoverable = 0;     // files ReadFile reports lost
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
      const bool fallback = lazy_stats.sectors_read > hi - lo;
      const bool skipped = full_stats.used_large_group && !fallback;
      tally.fallbacks += fallback ? 1 : 0;
      tally.skipped_recovery += skipped ? 1 : 0;
      Rng lazy_next = rng;
      EXPECT_EQ(lazy_next.NextU64() == full_rng.NextU64(), !skipped)
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
  enum class Damage { kPristine, kAged, kBurst };
  for (const Damage damage : {Damage::kPristine, Damage::kAged, Damage::kBurst}) {
    const char* damage_name = damage == Damage::kPristine ? "pristine"
                              : damage == Damage::kAged   ? "aged"
                                                          : "burst";
    DataPlaneConfig config;
    if (damage == Damage::kBurst) {
      config.write_channel.burst_miss_prob = 1e-5;  // ~2% of sectors lose a burst
      config.write_channel.burst_length = 800;
    }
    DataPlane plane(config);
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
      }
      if (damage == Damage::kAged) {
        // The one case where the streams part is exercised, and data is lost.
        EXPECT_GT(tally.skipped_recovery, 0);
        EXPECT_GT(tally.unrecoverable, 0);
      } else {
        EXPECT_EQ(tally.skipped_recovery, 0);
        EXPECT_EQ(tally.unrecoverable, 0);
      }
      plane.SetThreadPool(nullptr);
    }
  }
}

}  // namespace
}  // namespace silica
