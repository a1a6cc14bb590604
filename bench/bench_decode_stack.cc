// Decode stack throughput and economics (Section 3.2).
//
// Default (human) mode: a multicore sector-decode throughput measurement over the
// real data plane (write a platter, read every track back through the channel +
// soft decoder + LDPC), followed by the cost/SLO and elasticity sweeps of the
// disaggregated decode service.
//
// --threads=N sizes the worker pool for the measured run (default: hardware
// concurrency); a 1-thread baseline always runs first so the speedup is reported.
// --simd=auto|scalar|avx2|neon forces the kernel tier for the full-stack run.
// --json emits one machine-readable object on stdout (the host it ran on, sectors/s and an FNV-1a
// payload checksum per worker count, speedup vs 1 thread, and a per-SIMD-tier kernel-stage section — GF(256),
// recovery, LDPC, the fused soft demap and the read channel's noise — with a bit-identity checksum) for
// BENCH_decode.json trajectories; see tools/compare_runs.py for the diff rules.
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "channel/channel_model.h"
#include "channel/constellation.h"
#include "channel/soft_decoder.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/data_pipeline.h"
#include "decode/decode_service.h"
#include "ecc/gf256.h"
#include "ecc/ldpc.h"
#include "ecc/network_coding.h"
#include "ecc/simd/gf256_kernels.h"

namespace silica {
namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

uint64_t Fnv1a(const uint8_t* data, size_t len, uint64_t h) {
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct ThroughputRun {
  int threads = 1;
  uint64_t sectors = 0;
  double wall_seconds = 0.0;
  double sectors_per_second = 0.0;
  // FNV-1a over every decoded payload and its failure flag: thread count must
  // not change it.
  uint64_t payload_checksum = kFnvBasis;
};

// Writes one full platter, then times the read path (channel sim + soft decode +
// LDPC for every sector of every track) with a pool of `threads` workers.
ThroughputRun MeasureDecodeThroughput(DataPlane& plane,
                                      const WrittenPlatter& written, int threads) {
  ThroughputRun run;
  run.threads = threads;

  ThreadPool pool(static_cast<size_t>(threads));
  plane.SetThreadPool(threads > 1 ? &pool : nullptr);

  PlatterReader reader(plane);
  Rng rng(2024);
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < plane.geometry().tracks_per_platter(); ++t) {
    ReadStats stats;
    const auto decoded = reader.ReadTrackPayloads(written.platter, t, rng, &stats);
    run.sectors += stats.sectors_read;
    for (const auto& payload : decoded) {
      const uint8_t failed = payload ? 0 : 1;
      run.payload_checksum = Fnv1a(&failed, 1, run.payload_checksum);
      if (payload) {
        run.payload_checksum = Fnv1a(payload->data(), payload->size(), run.payload_checksum);
      }
    }
  }
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  plane.SetThreadPool(nullptr);
  if (run.wall_seconds > 0.0) {
    run.sectors_per_second =
        static_cast<double>(run.sectors) / run.wall_seconds;
  }
  return run;
}

// Per-SIMD-tier kernel-stage measurement. Each stage works on deterministic
// inputs (fixed seeds), so the FNV-1a checksum over every output byte is the
// bit-identity gate: all tiers must produce the same checksum, run to run and
// machine to machine.
struct TierRun {
  std::string tier;
  double gf256_gbps = 0.0;                   // GF(256) MulAccumulate bandwidth
  double recovery_sectors_per_second = 0.0;  // Cauchy/NC shard recovery rate
  double ldpc_decodes_per_second = 0.0;      // min-sum decodes of the 50-draw corpus
  double demap_sectors_per_second = 0.0;     // fused soft demap, image -> LLRs
  double noise_sectors_per_second = 0.0;     // read channel, symbols -> image
  uint64_t checksum = 0;                     // FNV-1a over all stage outputs
};

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

TierRun MeasureKernelStage(SimdMode mode) {
  TierRun run;
  run.tier = SimdModeName(mode);
  SetSimdMode(mode);  // caller iterates AvailableSimdModes(), so this succeeds
  uint64_t checksum = kFnvBasis;

  // Stage 1: GF(256) multiply-accumulate over a sector-sized shard, cycling
  // through every nonzero coefficient (the network-coding encode inner loop).
  {
    constexpr size_t kShardBytes = 64 * 1024;
    constexpr int kIters = 512;
    std::vector<uint8_t> dst(kShardBytes);
    std::vector<uint8_t> src(kShardBytes);
    Rng rng(7);
    for (auto& b : src) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    for (auto& b : dst) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      Gf256::MulAccumulate(dst, src, static_cast<uint8_t>((i % 255) + 1));
    }
    const double secs = Seconds(start);
    if (secs > 0.0) {
      run.gf256_gbps = static_cast<double>(kShardBytes) * kIters / secs / 1e9;
    }
    checksum = Fnv1a(dst.data(), dst.size(), checksum);
  }

  // Stage 2: Cauchy/NC recovery — lose the first `redundancy` shards of a
  // 64+8 group and reconstruct them from the survivors, repeatedly. This is the
  // platter-set repair hot loop (matrix inversion + batched row updates), and
  // the single-thread sectors_per_second that simd_speedup reports on.
  {
    constexpr size_t kInfo = 64;
    constexpr size_t kRedundancy = 8;
    constexpr size_t kShardLen = 4096;
    constexpr int kReps = 24;
    const NetworkCodec codec(kInfo, kRedundancy);
    Rng rng(11);
    std::vector<std::vector<uint8_t>> info(kInfo,
                                           std::vector<uint8_t>(kShardLen));
    for (auto& shard : info) {
      for (auto& b : shard) {
        b = static_cast<uint8_t>(rng.NextU64());
      }
    }
    std::vector<std::vector<uint8_t>> redundancy(
        kRedundancy, std::vector<uint8_t>(kShardLen, 0));
    {
      std::vector<std::span<const uint8_t>> info_spans(info.begin(), info.end());
      std::vector<std::span<uint8_t>> red_spans(redundancy.begin(),
                                                redundancy.end());
      codec.Encode(info_spans, red_spans, nullptr);
    }
    // Missing: information shards 0..R-1. Present: the rest of the group.
    std::vector<size_t> missing_indices;
    for (size_t m = 0; m < kRedundancy; ++m) {
      missing_indices.push_back(m);
    }
    std::vector<size_t> present_indices;
    std::vector<std::span<const uint8_t>> present;
    for (size_t i = kRedundancy; i < kInfo; ++i) {
      present_indices.push_back(i);
      present.push_back(info[i]);
    }
    for (size_t r = 0; r < kRedundancy; ++r) {
      present_indices.push_back(kInfo + r);
      present.push_back(redundancy[r]);
    }
    std::vector<std::vector<uint8_t>> recovered(
        kRedundancy, std::vector<uint8_t>(kShardLen, 0));
    std::vector<std::span<uint8_t>> recovered_spans(recovered.begin(),
                                                    recovered.end());
    const auto start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      codec.Reconstruct(present_indices, present, missing_indices,
                        recovered_spans, nullptr);
    }
    const double secs = Seconds(start);
    if (secs > 0.0) {
      run.recovery_sectors_per_second =
          static_cast<double>(kRedundancy) * kReps / secs;
    }
    for (const auto& shard : recovered) {
      checksum = Fnv1a(shard.data(), shard.size(), checksum);
    }
  }

  // Stage 3: LDPC min-sum over the 50-noise-draw corpus of parallel_test.cc
  // (same code shape, seeds, and sigma sweep). Hard decisions and iteration
  // counts fold into the checksum, pinning the vectorized decoder's schedule.
  {
    const auto code = LdpcCode::Build(
        {.block_bits = 512, .rate = 0.75, .column_weight = 3, .seed = 5});
    Rng rng(1234);
    std::vector<std::vector<float>> corpus;
    for (int draw = 0; draw < 50; ++draw) {
      std::vector<uint8_t> info(code.k());
      for (auto& b : info) {
        b = static_cast<uint8_t>(rng.UniformInt(0, 1));
      }
      const auto codeword = code.Encode(info);
      std::vector<float> llr(code.n());
      const double sigma = 0.7 + 0.02 * draw;
      for (size_t i = 0; i < llr.size(); ++i) {
        const double clean = codeword[i] ? -2.0 : 2.0;
        llr[i] = static_cast<float>(clean + rng.Normal(0.0, sigma));
      }
      corpus.push_back(std::move(llr));
    }
    const auto start = std::chrono::steady_clock::now();
    uint64_t decodes = 0;
    for (int pass = 0; pass < 4; ++pass) {
      for (const auto& llr : corpus) {
        const auto result = code.Decode(llr, 50);
        ++decodes;
        if (pass == 0) {
          checksum = Fnv1a(result.codeword.data(), result.codeword.size(),
                           checksum);
          const uint8_t iters = static_cast<uint8_t>(result.iterations);
          checksum = Fnv1a(&iters, 1, checksum);
        }
      }
    }
    const double secs = Seconds(start);
    if (secs > 0.0) {
      run.ldpc_decodes_per_second = static_cast<double>(decodes) / secs;
    }
  }

  // Stage 4: fused soft demap (SoftDecoder::DemapToLlrs) of data-plane-sized
  // sector images read through the default channel, half of them on aged
  // glass. Every LLR byte folds into the checksum, pinning the demap slot.
  {
    constexpr int kSectors = 16;
    constexpr int kPasses = 8;
    const MediaGeometry g = MediaGeometry::DataPlaneScale();
    const Constellation constellation(g.bits_per_voxel);
    const WriteChannel writer(constellation, {});
    const SoftDecoder decoder(constellation, ReadChannelParams{});
    Rng rng(13);
    std::vector<std::vector<VoxelObservable>> images;
    for (int i = 0; i < kSectors; ++i) {
      std::vector<uint16_t> symbols(static_cast<size_t>(g.voxels_per_sector()));
      for (auto& sym : symbols) {
        sym = static_cast<uint16_t>(rng.UniformInt(0, constellation.num_symbols() - 1));
      }
      const auto analog = writer.WriteSector(symbols, g.sector_rows, g.sector_cols, rng);
      const ReadChannel reader(ReadChannelParams{}.Aged(i % 2 == 0 ? 0.0 : 1.88));
      images.push_back(reader.ReadSector(analog, rng));
    }
    const auto start = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const auto& image : images) {
        const auto llrs = decoder.DemapToLlrs(image);
        if (pass == 0) {
          checksum = Fnv1a(reinterpret_cast<const uint8_t*>(llrs.data()),
                           llrs.size() * sizeof(float), checksum);
        }
      }
    }
    const double secs = Seconds(start);
    if (secs > 0.0) {
      run.demap_sectors_per_second = static_cast<double>(kSectors) * kPasses / secs;
    }
  }

  // Stage 5: the read channel (ReadChannel::ReadSymbols) imaging data-plane
  // sized sectors, half of them on aged glass: bulk draws plus the Box-Muller
  // kernel. Every measurement byte folds into the checksum, pinning the
  // gaussian_fill slot.
  {
    constexpr int kSectors = 16;
    constexpr int kPasses = 8;
    const MediaGeometry g = MediaGeometry::DataPlaneScale();
    const Constellation constellation(g.bits_per_voxel);
    Rng rng(17);
    std::vector<std::vector<uint16_t>> sectors(kSectors);
    for (auto& symbols : sectors) {
      symbols.resize(static_cast<size_t>(g.voxels_per_sector()));
      for (auto& sym : symbols) {
        sym = static_cast<uint16_t>(rng.UniformInt(0, constellation.num_symbols() - 1));
      }
    }
    const auto start = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (int i = 0; i < kSectors; ++i) {
        const ReadChannel reader(ReadChannelParams{}.Aged(i % 2 == 0 ? 0.0 : 1.88));
        const auto image = reader.ReadSymbols(
            constellation, sectors[static_cast<size_t>(i)], g.sector_rows,
            g.sector_cols, rng);
        if (pass == 0) {
          checksum = Fnv1a(reinterpret_cast<const uint8_t*>(image.data()),
                           image.size() * sizeof(VoxelObservable), checksum);
        }
      }
    }
    const double secs = Seconds(start);
    if (secs > 0.0) {
      run.noise_sectors_per_second = static_cast<double>(kSectors) * kPasses / secs;
    }
  }

  run.checksum = checksum;
  return run;
}

std::vector<DecodeJob> DaytimeJobs(int count, double slo_s, uint64_t seed) {
  Rng rng(seed);
  std::vector<DecodeJob> jobs;
  for (int i = 0; i < count; ++i) {
    DecodeJob job;
    job.id = static_cast<uint64_t>(i + 1);
    job.arrival = rng.Uniform(8.0 * kHour, 18.0 * kHour);  // business hours
    job.deadline = job.arrival + slo_s;
    job.sectors = static_cast<uint64_t>(rng.UniformInt(1000, 20000));
    jobs.push_back(job);
  }
  return jobs;
}

void SloSweep() {
  Header("Decode stack: cost vs SLO (500 daytime batches, diurnal price curve)");
  std::printf("%-14s %16s %16s %12s %12s\n", "SLO", "eager cost/sec",
              "shifted cost/sec", "saving", "hit rate");
  for (double slo_hours : {0.05, 0.5, 2.0, 8.0, 16.0, 24.0}) {
    const auto jobs = DaytimeJobs(500, slo_hours * kHour, 77);
    const auto eager = RunDecodeService({}, jobs, /*time_shifting=*/false);
    const auto shifted = RunDecodeService({}, jobs, /*time_shifting=*/true);
    std::printf("%11.1f h  %16.4f %16.4f %11.0f%% %11.1f%%\n", slo_hours,
                eager.mean_cost_per_sector, shifted.mean_cost_per_sector,
                100.0 * (1.0 - shifted.total_cost / eager.total_cost),
                100.0 * shifted.deadline_hit_rate());
  }
  std::printf("\nseconds-scale SLOs run at the spot price; many-hour SLOs ride the\n"
              "overnight valley — the longer the SLO, the cheaper the decode.\n"
              "(the paper: the stack 'supports SLOs ranging from seconds to hours,\n"
              "and exploits that to allow time-shifting of processing to periods\n"
              "of lowest compute costs')\n");
}

void ElasticitySweep() {
  Header("Decode stack: elastic fleet sizing");
  const auto jobs = DaytimeJobs(500, 4.0 * kHour, 78);
  std::printf("%-14s %12s %14s\n", "max workers", "hit rate", "peak workers");
  for (int max_workers : {2, 8, 32, 128}) {
    DecodeServiceConfig config;
    config.max_workers = max_workers;
    const auto report = RunDecodeService(config, jobs, true);
    std::printf("%-14d %11.1f%% %14d\n", max_workers,
                100.0 * report.deadline_hit_rate(), report.peak_workers);
  }
}

std::string Hex(uint64_t value) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(value));
  return hex;
}

int Run(int threads, bool json, const std::string& simd) {
  // Per-tier kernel-stage runs first (they force tiers globally; the full-stack
  // run below then pins the requested tier). Scalar is always index 0.
  const std::vector<SimdMode> tiers = AvailableSimdModes();
  std::vector<TierRun> tier_runs;
  for (const SimdMode mode : tiers) {
    tier_runs.push_back(MeasureKernelStage(mode));
  }
  // Best non-scalar tier by recovery throughput (the metric simd_speedup is
  // defined on); falls back to scalar when no vector tier is available.
  size_t best = 0;
  for (size_t i = 1; i < tier_runs.size(); ++i) {
    if (tier_runs[i].recovery_sectors_per_second >
        tier_runs[best].recovery_sectors_per_second) {
      best = i;
    }
  }
  const double simd_speedup =
      tier_runs[0].recovery_sectors_per_second > 0.0
          ? tier_runs[best].recovery_sectors_per_second /
                tier_runs[0].recovery_sectors_per_second
          : 0.0;
  bool bit_identical = true;
  for (const TierRun& t : tier_runs) {
    bit_identical = bit_identical && t.checksum == tier_runs[0].checksum;
  }

  SetSimdModeByName(simd);

  // One platter through the real write pipeline; the read side is what we time.
  DataPlane plane(DataPlaneConfig{});
  PlatterWriter writer(plane);
  const MediaGeometry& g = plane.geometry();
  std::vector<uint8_t> bytes(g.payload_bytes_per_platter() / 2);
  Rng fill(99);
  for (auto& b : bytes) {
    b = static_cast<uint8_t>(fill.NextU64());
  }
  Rng write_rng(4);
  const auto written = writer.WritePlatter(
      1, {FileData{.file_id = 1, .name = "bench", .bytes = std::move(bytes)}},
      write_rng);

  const auto baseline = MeasureDecodeThroughput(plane, written, 1);
  ThroughputRun threaded = baseline;
  if (threads > 1) {
    threaded = MeasureDecodeThroughput(plane, written, threads);
  }
  const double speedup = baseline.sectors_per_second > 0.0
                             ? threaded.sectors_per_second /
                                   baseline.sectors_per_second
                             : 0.0;

  if (json) {
    auto render = [](const ThroughputRun& r) {
      return JsonObject()
          .Field("threads", r.threads)
          .Field("sectors", r.sectors)
          .Field("wall_seconds", r.wall_seconds)
          .Field("sectors_per_second", r.sectors_per_second)
          .Field("payload_checksum", Hex(r.payload_checksum))
          .Str();
    };
    auto render_tier = [](const TierRun& t) {
      return JsonObject()
          .Field("tier", t.tier)
          .Field("gf256_gbps", t.gf256_gbps)
          .Field("recovery_sectors_per_second", t.recovery_sectors_per_second)
          .Field("ldpc_decodes_per_second", t.ldpc_decodes_per_second)
          .Field("demap_sectors_per_second", t.demap_sectors_per_second)
          .Field("noise_sectors_per_second", t.noise_sectors_per_second)
          .Field("checksum", Hex(t.checksum))
          .Str();
    };
    std::vector<std::string> tier_json;
    for (const TierRun& t : tier_runs) {
      tier_json.push_back(render_tier(t));
    }
    JsonObject simd_out;
    simd_out.FieldRaw("tiers", JsonArray(tier_json))
        .Field("best_tier", tier_runs[best].tier)
        .Field("simd_speedup", simd_speedup)
        .Field("bit_identical", bit_identical);
    JsonObject out;
    out.Field("bench", "decode_stack")
        .FieldRaw("host", HostJson())
        .Field("threads", threads)
        .FieldRaw("runs", JsonArray({render(baseline), render(threaded)}))
        .Field("sectors_per_second", threaded.sectors_per_second)
        .Field("speedup_vs_1_thread", speedup)
        .FieldRaw("simd", simd_out.Str());
    std::printf("%s\n", out.Str().c_str());
    return 0;
  }

  Header("Decode stack: SIMD kernel tiers (single thread)");
  std::printf("%-10s %14s %22s %18s %18s %18s %18s\n", "tier", "gf256 GB/s",
              "recovery sectors/s", "ldpc decodes/s", "demap sectors/s",
              "noise sectors/s", "checksum");
  for (const TierRun& t : tier_runs) {
    std::printf("%-10s %14.2f %22.1f %18.1f %18.1f %18.1f   %016llx\n",
                t.tier.c_str(), t.gf256_gbps, t.recovery_sectors_per_second,
                t.ldpc_decodes_per_second, t.demap_sectors_per_second,
                t.noise_sectors_per_second,
                static_cast<unsigned long long>(t.checksum));
  }
  std::printf("best tier %s: %.2fx recovery speedup vs scalar; tiers %s\n",
              tier_runs[best].tier.c_str(), simd_speedup,
              bit_identical ? "bit-identical" : "DIVERGED (BUG)");

  Header("Decode stack: multicore sector-decode throughput");
  std::printf("%-10s %10s %14s %18s %10s %18s\n", "threads", "sectors", "wall (s)",
              "sectors/s", "speedup", "payload checksum");
  std::printf("%-10d %10llu %14.3f %18.1f %9.2fx   %s\n", baseline.threads,
              static_cast<unsigned long long>(baseline.sectors),
              baseline.wall_seconds, baseline.sectors_per_second, 1.0,
              Hex(baseline.payload_checksum).c_str());
  if (threads > 1) {
    std::printf("%-10d %10llu %14.3f %18.1f %9.2fx   %s\n", threaded.threads,
                static_cast<unsigned long long>(threaded.sectors),
                threaded.wall_seconds, threaded.sectors_per_second, speedup,
                Hex(threaded.payload_checksum).c_str());
  }

  SloSweep();
  ElasticitySweep();
  return 0;
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  int threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  bool json = false;
  std::string simd = "auto";
  silica::FlagSet flags("bench_decode_stack",
                        "Decode stack throughput (1 thread vs --threads) and "
                        "the Section 3.2 cost/SLO sweeps.");
  flags.Int("threads", &threads, "decode worker threads of the measured run")
      .Enum("simd", &simd, silica::SimdModeNames(),
            "kernel tier of the full-stack run")
      .Bool("json", &json, "one JSON object on stdout");
  return silica::RunBench(argc, argv, flags, [&] {
    if (threads < 1) {
      throw silica::FlagError("--threads must be >= 1");
    }
    return silica::Run(threads, json, simd);
  });
}
