// Data-plane kernel benchmarks (google-benchmark): the coding and decode-stack
// primitives behind the write/read pipelines. Not a paper figure; validates that
// the substituted software substrate sustains realistic throughputs and measures
// the observed sector failure rate against the paper's ~1e-3 operating point.
#include <benchmark/benchmark.h>

#include "channel/sector_codec.h"
#include "common/rng.h"
#include "core/data_pipeline.h"
#include "ecc/gf256.h"
#include "ecc/ldpc.h"
#include "ecc/network_coding.h"

namespace silica {
namespace {

const DataPlane& Plane() {
  static const DataPlane plane{DataPlaneConfig{}};
  return plane;
}

void BM_Gf256MulAccumulate(benchmark::State& state) {
  std::vector<uint8_t> dst(static_cast<size_t>(state.range(0)), 1);
  std::vector<uint8_t> src(dst.size(), 2);
  for (auto _ : state) {
    Gf256::MulAccumulate(dst, src, 0x53);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Gf256MulAccumulate)->Arg(4096)->Arg(65536);

void BM_NetworkCodecEncode(benchmark::State& state) {
  const size_t info = static_cast<size_t>(state.range(0));
  NetworkCodec codec(info, info / 12 + 1);
  Rng rng(1);
  std::vector<std::vector<uint8_t>> shards(info, std::vector<uint8_t>(2275));
  for (auto& s : shards) {
    for (auto& b : s) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
  }
  std::vector<std::vector<uint8_t>> red(codec.redundancy(),
                                        std::vector<uint8_t>(2275));
  std::vector<std::span<const uint8_t>> info_views(shards.begin(), shards.end());
  std::vector<std::span<uint8_t>> red_views(red.begin(), red.end());
  for (auto _ : state) {
    codec.Encode(info_views, red_views);
    benchmark::DoNotOptimize(red.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(info * 2275));
}
BENCHMARK(BM_NetworkCodecEncode)->Arg(24)->Arg(200);

void BM_LdpcEncode(benchmark::State& state) {
  const auto& codec = Plane().sector_codec();
  Rng rng(2);
  std::vector<uint8_t> payload(codec.payload_bytes());
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  for (auto _ : state) {
    auto symbols = codec.EncodeSector(payload);
    benchmark::DoNotOptimize(symbols.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_LdpcEncode);

void BM_SectorDecodeEndToEnd(benchmark::State& state) {
  const auto& plane = Plane();
  const auto& g = plane.geometry();
  Rng rng(3);
  std::vector<uint8_t> payload(plane.sector_payload_bytes(), 0x5C);
  const auto symbols = plane.sector_codec().EncodeSector(payload);
  const auto analog =
      plane.write_channel().WriteSector(symbols, g.sector_rows, g.sector_cols, rng);
  uint64_t failures = 0;
  uint64_t total = 0;
  for (auto _ : state) {
    const auto measured = plane.read_channel().ReadSector(analog, rng);
    const auto decoded = plane.sector_codec().DecodeFromLlrs(
        plane.soft_decoder().DemapToLlrs(measured));
    if (!decoded) {
      ++failures;
    }
    ++total;
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
  state.counters["sector_failure_rate"] =
      static_cast<double>(failures) / static_cast<double>(total);
}
BENCHMARK(BM_SectorDecodeEndToEnd);

void BM_PlatterVerify(benchmark::State& state) {
  const auto& plane = Plane();
  Rng rng(4);
  PlatterWriter writer(plane);
  std::vector<FileData> files;
  files.push_back(
      {.file_id = 1, .name = "f", .bytes = std::vector<uint8_t>(100000, 0x7E)});
  const auto written = writer.WritePlatter(1, files, rng);
  PlatterVerifier verifier(plane);
  for (auto _ : state) {
    const auto report = verifier.Verify(written.platter, rng);
    benchmark::DoNotOptimize(report);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(plane.geometry().raw_bytes_per_track()) *
      plane.geometry().tracks_per_platter());
}
BENCHMARK(BM_PlatterVerify);

}  // namespace
}  // namespace silica

BENCHMARK_MAIN();
