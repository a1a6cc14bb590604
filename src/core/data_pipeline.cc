#include "core/data_pipeline.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "common/thread_pool.h"
#include "ecc/gf65536.h"
#include "telemetry/telemetry.h"

namespace silica {
namespace {

// Payload bytes <-> GF(2^16) shard words (little endian, zero-padded to even).
std::vector<uint16_t> BytesToWords(std::span<const uint8_t> bytes) {
  std::vector<uint16_t> words((bytes.size() + 1) / 2, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    words[i / 2] |= static_cast<uint16_t>(bytes[i]) << (8 * (i % 2));
  }
  return words;
}

std::vector<uint8_t> WordsToBytes(std::span<const uint16_t> words, size_t byte_len) {
  std::vector<uint8_t> bytes(byte_len);
  for (size_t i = 0; i < byte_len; ++i) {
    bytes[i] = static_cast<uint8_t>(words[i / 2] >> (8 * (i % 2)));
  }
  return bytes;
}

// Encodes every sector payload through LDPC and the write channel onto
// `platter` (failed voxels stored as kMissingVoxel). Determinism contract: the
// caller's stream advances exactly once and sector (t, s) draws its noise from
// a child forked by its flat index t * S + s, so the glass is the same with no
// pool and with any worker count.
void WriteSectors(const DataPlane& plane,
                  const std::vector<std::vector<std::vector<uint8_t>>>& payloads,
                  GlassPlatter& platter, Rng& rng) {
  const MediaGeometry& g = plane.geometry();
  const size_t sectors = static_cast<size_t>(g.sectors_per_track());
  const Rng base = rng;
  rng.NextU64();
  // Each index writes only its own sector slot, so the fan-out is race-free.
  ParallelFor(plane.thread_pool(), payloads.size() * sectors, [&](size_t idx) {
    Rng noise = base.Fork(idx);
    auto symbols = plane.sector_codec().EncodeSector(payloads[idx / sectors][idx % sectors]);
    const auto analog = plane.write_channel().WriteSector(symbols, g.sector_rows,
                                                          g.sector_cols, noise);
    for (size_t v = 0; v < symbols.size(); ++v) {
      if (analog.missing[v]) {
        symbols[v] = kMissingVoxel;
      }
    }
    platter.WriteSector({static_cast<int>(idx / sectors), static_cast<int>(idx % sectors)},
                        std::move(symbols));
  });
}

}  // namespace

DataPlane::DataPlane(DataPlaneConfig config)
    : config_(config),
      constellation_(config.geometry.bits_per_voxel),
      sector_codec_(config.geometry, config.code_seed),
      write_channel_(constellation_, config.write_channel),
      read_channel_(config.read_channel),
      soft_decoder_(constellation_, config.read_channel, config.decoder),
      track_codec_(static_cast<size_t>(config.geometry.info_sectors_per_track),
                   static_cast<size_t>(config.geometry.redundancy_sectors_per_track)),
      large_codec_(static_cast<size_t>(config.geometry.large_group_info_tracks),
                   static_cast<size_t>(config.geometry.large_group_redundancy_tracks)) {}

void DataPlane::SetTelemetry(Telemetry* telemetry) {
  if (telemetry == nullptr) {
    stage_counters_ = StageCounters{};
    return;
  }
  MetricsRegistry& metrics = telemetry->metrics;
  stage_counters_.sectors_read = &metrics.GetCounter("decode_sectors_read_total");
  stage_counters_.ldpc_failures = &metrics.GetCounter("decode_ldpc_failures_total");
  stage_counters_.track_nc_recoveries =
      &metrics.GetCounter("decode_track_nc_recoveries_total");
  stage_counters_.large_nc_recoveries =
      &metrics.GetCounter("decode_large_nc_recoveries_total");
  stage_counters_.platter_set_recoveries =
      &metrics.GetCounter("decode_platter_set_recoveries_total");
  stage_counters_.recovery_reads =
      &metrics.GetCounter("decode_recovery_reads_total");
  stage_counters_.platters_verified =
      &metrics.GetCounter("decode_platters_verified_total");
  stage_counters_.decode_wall_seconds = &metrics.GetGauge("decode_wall_seconds");
  stage_counters_.sectors_per_second =
      &metrics.GetGauge("decode_sectors_per_second");
}

WrittenPlatter PlatterWriter::WritePlatter(uint64_t platter_id,
                                           const std::vector<FileData>& files,
                                           Rng& rng) const {
  const MediaGeometry& g = plane_->geometry();
  const size_t payload_bytes = plane_->sector_payload_bytes();
  const size_t info_sectors = static_cast<size_t>(g.info_sectors_per_track);
  const size_t sectors = static_cast<size_t>(g.sectors_per_track());
  const size_t info_tracks = static_cast<size_t>(g.info_tracks_per_platter);
  const size_t all_tracks = static_cast<size_t>(g.tracks_per_platter());

  WrittenPlatter out{GlassPlatter(g, platter_id), {}};
  auto& payloads = out.payloads;
  payloads.assign(all_tracks, std::vector<std::vector<uint8_t>>(
                                  sectors, std::vector<uint8_t>(payload_bytes, 0)));

  // 1. Pack files into information sectors, serpentine order.
  PlatterHeader header;
  header.platter_id = platter_id;
  uint64_t cursor = 0;  // serpentine information-sector index
  const uint64_t capacity = info_tracks * info_sectors;
  for (const auto& file : files) {
    const uint64_t need =
        std::max<uint64_t>(1, (file.bytes.size() + payload_bytes - 1) / payload_bytes);
    if (cursor + need > capacity) {
      throw std::invalid_argument("PlatterWriter: files exceed platter capacity");
    }
    header.files.push_back(PlatterFileEntry{
        .file_id = file.file_id,
        .name = file.name,
        .start_sector_index = cursor,
        .size_bytes = file.bytes.size(),
    });
    for (uint64_t s = 0; s < need; ++s) {
      const SectorAddress addr = SerpentineSectorAddress(g, cursor + s);
      auto& payload = payloads[static_cast<size_t>(addr.track)]
                              [static_cast<size_t>(addr.sector)];
      const size_t offset = static_cast<size_t>(s) * payload_bytes;
      const size_t len = std::min(payload_bytes, file.bytes.size() - offset);
      std::copy_n(file.bytes.begin() + static_cast<long>(offset), len,
                  payload.begin());
    }
    cursor += need;
  }

  // 2. Within-track NC for every information track. Tracks are independent and
  // the GF(256) math is exact, so fanning over tracks is thread-count invariant.
  ThreadPool* pool = plane_->thread_pool();
  const NetworkCodec& track_codec = plane_->track_codec();
  ParallelFor(pool, info_tracks, [&](size_t t) {
    std::vector<std::span<const uint8_t>> info;
    std::vector<std::span<uint8_t>> redundancy;
    for (size_t s = 0; s < info_sectors; ++s) {
      info.emplace_back(payloads[t][s]);
    }
    for (size_t s = info_sectors; s < sectors; ++s) {
      redundancy.emplace_back(payloads[t][s]);
    }
    track_codec.Encode(info, redundancy);
  });

  // 3. Large-group NC across tracks, one group per I_l information tracks,
  // protecting every sector position (short final groups pad with zero tracks).
  const NetworkCodec& large = plane_->large_group_codec();
  const size_t group_info = static_cast<size_t>(g.large_group_info_tracks);
  const size_t group_red = static_cast<size_t>(g.large_group_redundancy_tracks);
  const size_t groups = (info_tracks + group_info - 1) / group_info;
  const std::vector<uint8_t> zero_payload(payload_bytes, 0);
  // Every (group, sector position) pair writes a disjoint set of redundancy
  // buffers, so the whole grid fans out.
  ParallelFor(pool, groups * sectors, [&](size_t idx) {
    const size_t grp = idx / sectors;
    const size_t pos = idx % sectors;
    std::vector<std::span<const uint8_t>> info;
    for (size_t i = 0; i < group_info; ++i) {
      const size_t t = grp * group_info + i;
      info.emplace_back(t < info_tracks ? std::span<const uint8_t>(payloads[t][pos])
                                        : std::span<const uint8_t>(zero_payload));
    }
    std::vector<std::span<uint8_t>> redundancy;
    for (size_t r = 0; r < group_red; ++r) {
      const size_t t = info_tracks + grp * group_red + r;
      redundancy.emplace_back(payloads[t][pos]);
    }
    large.Encode(info, redundancy);
  });

  // 4. Encode every sector through LDPC and the write channel onto the glass.
  WriteSectors(*plane_, payloads, out.platter, rng);
  out.platter.SetHeader(std::move(header));
  out.platter.Seal();
  return out;
}

std::optional<std::vector<uint8_t>> PlatterReader::DecodeSector(
    const GlassPlatter& platter, SectorAddress address, Rng& rng) const {
  const MediaGeometry& g = plane_->geometry();
  // Aged glass measures noisier than the decoder's pristine priors assume; the
  // pristine path is untouched (bit-identical) when the platter never aged.
  const ReadChannel aged(plane_->read_channel().params().Aged(platter.age_stress()));
  const ReadChannel& channel =
      platter.age_stress() > 0.0 ? aged : plane_->read_channel();
  const auto image = channel.ReadSymbols(plane_->constellation(),
                                         platter.SectorSymbols(address),
                                         g.sector_rows, g.sector_cols, rng);
  return plane_->sector_codec().DecodeFromLlrs(plane_->soft_decoder().DemapToLlrs(image));
}

std::vector<std::optional<std::vector<uint8_t>>> PlatterReader::ReadTrackPayloads(
    const GlassPlatter& platter, int track, Rng& rng, ReadStats* stats) const {
  const std::vector<uint8_t> all(
      static_cast<size_t>(plane_->geometry().sectors_per_track()), 1);
  return ReadTrack(platter, track, all, rng, stats);
}

std::vector<std::optional<std::vector<uint8_t>>> PlatterReader::ReadTrack(
    const GlassPlatter& platter, int track, std::span<const uint8_t> wanted,
    Rng& rng, ReadStats* stats, int retries) const {
  const MediaGeometry& g = plane_->geometry();
  const size_t sectors = static_cast<size_t>(g.sectors_per_track());
  const size_t info_sectors = static_cast<size_t>(g.info_sectors_per_track);
  assert(wanted.size() == sectors);
  const DataPlane::StageCounters& counters = plane_->stage_counters();
  ThreadPool* pool = plane_->thread_pool();

  // Determinism contract: the caller's stream advances exactly once. Sector
  // (t, s), of this track or of a large-group peer, draws its noise from
  // base.Fork(t * S + s); retry a >= 1 of it adds a * (sectors on the platter)
  // to that key, so no two images in the pass share a stream. Which sectors
  // are decoded, and on how many threads, never changes what any sector sees.
  const Rng base = rng;
  rng.NextU64();
  const size_t sector_keys = static_cast<size_t>(g.tracks_per_platter()) * sectors;
  auto decode = [&](size_t t, size_t s, int attempt) {
    Rng noise = base.Fork(static_cast<size_t>(attempt) * sector_keys + t * sectors + s);
    return DecodeSector(platter, {static_cast<int>(t), static_cast<int>(s)}, noise);
  };
  // Counters are not thread-safe, so fan-outs only write their own slots and
  // tallies run after.
  auto tally = [&](uint64_t ReadStats::*field, Counter* counter, uint64_t n) {
    if (stats != nullptr) {
      stats->*field += n;
    }
    if (counter != nullptr) {
      counter->Increment(static_cast<double>(n));
    }
  };

  std::vector<std::optional<std::vector<uint8_t>>> decoded(sectors);
  std::vector<uint8_t> attempted(sectors, 0);
  const auto decode_start = std::chrono::steady_clock::now();
  // Decodes every not-yet-attempted sector `pick` selects.
  auto decode_pass = [&](auto pick) {
    std::vector<size_t> todo;
    for (size_t s = 0; s < sectors; ++s) {
      if (!attempted[s] && pick(s)) {
        attempted[s] = 1;
        todo.push_back(s);
      }
    }
    ParallelFor(pool, todo.size(), [&](size_t i) {
      decoded[todo[i]] = decode(static_cast<size_t>(track), todo[i], 0);
    });
  };
  decode_pass([&](size_t s) { return wanted[s] != 0; });
  // Fallback: a failed wanted information sector needs NC, which needs the rest
  // of the track, so from here on the read is exactly a full-track read.
  for (size_t s = 0; s < info_sectors; ++s) {
    if (wanted[s] && !decoded[s]) {
      decode_pass([](size_t) { return true; });
      break;
    }
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - decode_start)
          .count();
  uint64_t sectors_decoded = 0;
  uint64_t failures = 0;
  for (size_t s = 0; s < sectors; ++s) {
    sectors_decoded += attempted[s];
    failures += attempted[s] && !decoded[s];
  }
  tally(&ReadStats::sectors_read, counters.sectors_read, sectors_decoded);
  tally(&ReadStats::ldpc_failures, counters.ldpc_failures, failures);
  if (counters.decode_wall_seconds != nullptr) {
    counters.decode_wall_seconds->Set(wall_seconds);
  }
  if (counters.sectors_per_second != nullptr && wall_seconds > 0.0) {
    counters.sectors_per_second->Set(static_cast<double>(sectors_decoded) /
                                     wall_seconds);
  }

  // Without the fallback no attempted information sector failed, so nothing is
  // missing and the unattempted ones stay nullopt.
  std::vector<size_t> missing;
  for (size_t s = 0; s < info_sectors; ++s) {
    if (attempted[s] && !decoded[s]) {
      missing.push_back(s);
    }
  }

  // Tier 0: re-image each failed information sector; marginal sectors on aged
  // glass often decode on a fresh noise draw.
  if (retries > 0 && !missing.empty()) {
    std::vector<int> tries(missing.size(), 0);
    ParallelFor(pool, missing.size(), [&](size_t i) {
      while (!decoded[missing[i]] && tries[i] < retries) {
        decoded[missing[i]] = decode(static_cast<size_t>(track), missing[i], ++tries[i]);
      }
    });
    const size_t before = missing.size();
    std::erase_if(missing, [&](size_t s) { return decoded[s].has_value(); });
    tally(&ReadStats::recovery_reads, counters.recovery_reads,
          static_cast<uint64_t>(std::accumulate(tries.begin(), tries.end(), 0)));
    tally(&ReadStats::ldpc_retry_recoveries, nullptr, before - missing.size());
  }

  // Tier 1: within-track NC over every sector that decoded.
  if (!missing.empty()) {
    std::vector<size_t> present_indices;
    std::vector<std::span<const uint8_t>> present;
    for (size_t s = 0; s < sectors; ++s) {
      if (decoded[s]) {
        present_indices.push_back(s);
        present.emplace_back(*decoded[s]);
      }
    }
    std::vector<std::vector<uint8_t>> recovered(
        missing.size(), std::vector<uint8_t>(plane_->sector_payload_bytes()));
    std::vector<std::span<uint8_t>> recovered_views(recovered.begin(), recovered.end());
    if (plane_->track_codec().Reconstruct(present_indices, present, missing,
                                          recovered_views, pool)) {
      for (size_t m = 0; m < missing.size(); ++m) {
        decoded[missing[m]] = std::move(recovered[m]);
      }
      tally(&ReadStats::track_nc_recoveries, counters.track_nc_recoveries,
            missing.size());
      missing.clear();
    }
  }

  // Tier 2: the large group across tracks, per missing sector position (only
  // information tracks belong to large groups).
  if (!missing.empty() && track < g.info_tracks_per_platter) {
    if (stats != nullptr) {
      stats->used_large_group = true;
    }
    const size_t group_info = static_cast<size_t>(g.large_group_info_tracks);
    const size_t group_red = static_cast<size_t>(g.large_group_redundancy_tracks);
    const size_t info_tracks = static_cast<size_t>(g.info_tracks_per_platter);
    const size_t grp = static_cast<size_t>(track) / group_info;
    const size_t my_offset = static_cast<size_t>(track) % group_info;
    // The group's other shards in codec order: information tracks, then
    // redundancy tracks. Information slots past the platter's last track
    // (kPadding) pad a short final group with zeros and are never read.
    constexpr size_t kPadding = SIZE_MAX;
    std::vector<size_t> peer_index;
    std::vector<size_t> peer_track;
    for (size_t i = 0; i < group_info + group_red; ++i) {
      if (i == my_offset) {
        continue;
      }
      size_t t = i < group_info ? grp * group_info + i
                                : info_tracks + grp * group_red + (i - group_info);
      if (i < group_info && t >= info_tracks) {
        t = kPadding;
      }
      peer_index.push_back(i);
      peer_track.push_back(t);
    }
    const uint64_t peer_reads = static_cast<uint64_t>(
        peer_track.size() - std::count(peer_track.begin(), peer_track.end(), kPadding));
    const std::vector<uint8_t> zero_payload(plane_->sector_payload_bytes(), 0);
    for (const size_t pos : missing) {
      std::vector<std::optional<std::vector<uint8_t>>> shards(peer_track.size());
      ParallelFor(pool, peer_track.size(), [&](size_t k) {
        shards[k] = peer_track[k] == kPadding ? zero_payload : decode(peer_track[k], pos, 0);
      });
      tally(&ReadStats::recovery_reads, counters.recovery_reads, peer_reads);
      std::vector<size_t> present_indices;
      std::vector<std::span<const uint8_t>> present;
      for (size_t k = 0; k < shards.size(); ++k) {
        if (shards[k]) {
          present_indices.push_back(peer_index[k]);
          present.emplace_back(*shards[k]);
        }
      }
      std::vector<uint8_t> recovered(plane_->sector_payload_bytes());
      std::span<uint8_t> recovered_view(recovered);
      const std::vector<size_t> want = {my_offset};
      if (plane_->large_group_codec().Reconstruct(
              present_indices, present, want,
              std::span<const std::span<uint8_t>>(&recovered_view, 1), pool)) {
        decoded[pos] = std::move(recovered);
        tally(&ReadStats::large_nc_recoveries, counters.large_nc_recoveries, 1);
      }
    }
  }
  return decoded;
}

std::optional<std::vector<uint8_t>> PlatterReader::ReadFile(
    const GlassPlatter& platter, const PlatterFileEntry& entry, Rng& rng,
    ReadStats* stats) const {
  const MediaGeometry& g = plane_->geometry();
  const uint64_t payload_bytes = plane_->sector_payload_bytes();
  const uint64_t per_track = static_cast<uint64_t>(g.info_sectors_per_track);
  const uint64_t capacity =
      static_cast<uint64_t>(g.info_tracks_per_platter) * per_track;
  const uint64_t need = std::max<uint64_t>(
      1, entry.size_bytes / payload_bytes + (entry.size_bytes % payload_bytes != 0));
  const uint64_t first = entry.start_sector_index;
  if (first > capacity || need > capacity - first) {
    throw std::out_of_range("PlatterReader: file " + std::to_string(entry.file_id) +
                            " ('" + entry.name +
                            "') extends past the platter's information sectors");
  }
  const uint64_t end = first + need;

  std::vector<uint8_t> out;
  out.reserve(entry.size_bytes);
  std::vector<uint8_t> wanted(static_cast<size_t>(g.sectors_per_track()));
  // The extent touches consecutive tracks; read each once, in order, decoding
  // only the file's sectors. An unrecoverable sector stops before the next track
  // is read.
  for (uint64_t lo = first, hi = 0; lo < end; lo = hi) {
    hi = std::min(end, (lo / per_track + 1) * per_track);
    std::fill(wanted.begin(), wanted.end(), 0);
    for (uint64_t i = lo; i < hi; ++i) {
      wanted[static_cast<size_t>(SerpentineSectorAddress(g, i).sector)] = 1;
    }
    const int track = SerpentineSectorAddress(g, lo).track;
    const auto payloads = ReadTrack(platter, track, wanted, rng, stats);
    for (uint64_t i = lo; i < hi; ++i) {
      const auto& payload =
          payloads[static_cast<size_t>(SerpentineSectorAddress(g, i).sector)];
      if (!payload) {
        return std::nullopt;  // unrecoverable on-platter
      }
      const size_t len = static_cast<size_t>(
          std::min(payload_bytes, entry.size_bytes - (i - first) * payload_bytes));
      out.insert(out.end(), payload->begin(), payload->begin() + static_cast<long>(len));
    }
  }
  return out;
}

VerifyReport PlatterVerifier::Verify(const GlassPlatter& platter, Rng& rng) const {
  const MediaGeometry& g = plane_->geometry();
  PlatterReader reader(*plane_);
  VerifyReport report;
  for (int t = 0; t < g.tracks_per_platter(); ++t) {
    ReadStats stats;
    const auto decoded = reader.ReadTrackPayloads(platter, t, rng, &stats);
    report.sectors_total += stats.sectors_read;
    report.sector_erasures += stats.ldpc_failures;
    report.track_nc_recoveries += stats.track_nc_recoveries;
    report.large_nc_recoveries += stats.large_nc_recoveries;
    for (const auto& payload : decoded) {
      if (!payload) {
        ++report.unrecoverable_sectors;
      }
    }
  }
  report.durable = report.unrecoverable_sectors == 0;
  // Every first-read erasure must be accounted for by exactly one recovery
  // layer or the unrecoverable bucket.
  assert(report.Conserves());
  if (plane_->stage_counters().platters_verified != nullptr) {
    plane_->stage_counters().platters_verified->Increment();
  }
  return report;
}

PlatterSetCodec::PlatterSetCodec(const DataPlane& plane, PlatterSetConfig set)
    : plane_(&plane),
      set_(set),
      codec_(static_cast<size_t>(set.info) *
                 static_cast<size_t>(plane.geometry().sectors_per_track()),
             static_cast<size_t>(set.redundancy) *
                 static_cast<size_t>(plane.geometry().sectors_per_track())) {}

std::vector<WrittenPlatter> PlatterSetCodec::EncodeRedundancyPlatters(
    const std::vector<const WrittenPlatter*>& info_platters, uint64_t first_id,
    Rng& rng) const {
  const MediaGeometry& g = plane_->geometry();
  if (info_platters.size() != static_cast<size_t>(set_.info)) {
    throw std::invalid_argument("PlatterSetCodec: wrong information platter count");
  }
  const size_t sectors = static_cast<size_t>(g.sectors_per_track());
  const size_t all_tracks = static_cast<size_t>(g.tracks_per_platter());
  const size_t payload_bytes = plane_->sector_payload_bytes();
  const size_t words = (payload_bytes + 1) / 2;

  std::vector<WrittenPlatter> out;
  out.reserve(static_cast<size_t>(set_.redundancy));
  for (int r = 0; r < set_.redundancy; ++r) {
    WrittenPlatter wp{GlassPlatter(g, first_id + static_cast<uint64_t>(r)), {}};
    wp.payloads.assign(all_tracks,
                       std::vector<std::vector<uint8_t>>(
                           sectors, std::vector<uint8_t>(payload_bytes, 0)));
    out.push_back(std::move(wp));
  }

  // One GF(2^16) group per track: all sectors of that track across the set.
  // Every information shard becomes words once; then each (track, redundancy
  // shard) output sums its I_p * S inputs on its own, so the outputs fan out
  // across the pool in one pass. GF(2^16) sums are exact and order-free, so
  // the bytes equal the streaming EncodeAccumulate loop's.
  const size_t info_shards = info_platters.size() * sectors;
  const size_t red_shards = static_cast<size_t>(set_.redundancy) * sectors;
  std::vector<std::vector<uint16_t>> info_words(all_tracks * info_shards);
  ParallelFor(plane_->thread_pool(), info_words.size(), [&](size_t i) {
    const size_t t = i / info_shards;
    const size_t col = i % info_shards;
    info_words[i] = BytesToWords(info_platters[col / sectors]->payloads[t][col % sectors]);
  });
  ParallelFor(plane_->thread_pool(), all_tracks * red_shards, [&](size_t i) {
    const size_t t = i / red_shards;
    const size_t row = i % red_shards;
    std::vector<uint16_t> acc(words, 0);
    for (size_t col = 0; col < info_shards; ++col) {
      Gf65536::MulAccumulate(acc, info_words[t * info_shards + col],
                             codec_.Coefficient(row, col));
    }
    out[row / sectors].payloads[t][row % sectors] = WordsToBytes(acc, payload_bytes);
  });

  // Write the redundancy platters to glass.
  for (int r = 0; r < set_.redundancy; ++r) {
    auto& wp = out[static_cast<size_t>(r)];
    PlatterHeader header;
    header.platter_id = first_id + static_cast<uint64_t>(r);
    wp.platter.SetHeader(header);
    WriteSectors(*plane_, wp.payloads, wp.platter, rng);
    wp.platter.Seal();
  }
  return out;
}

std::optional<std::vector<std::vector<uint8_t>>> PlatterSetCodec::AllTrackPayloads(
    const GlassPlatter& platter, int track, Rng& rng, ReadStats* stats) const {
  PlatterReader reader(*plane_);
  ReadStats local;
  auto decoded = reader.ReadTrackPayloads(platter, track, rng, &local);
  if (stats != nullptr) {
    // Peer-platter reads are recovery traffic from the caller's perspective;
    // they must not inflate the caller's nominal sectors_read.
    stats->recovery_reads += local.sectors_read + local.recovery_reads;
  }
  if (plane_->stage_counters().recovery_reads != nullptr) {
    plane_->stage_counters().recovery_reads->Increment(
        static_cast<double>(local.sectors_read));
  }
  std::vector<std::vector<uint8_t>> out;
  out.reserve(decoded.size());
  for (auto& payload : decoded) {
    if (!payload) {
      return std::nullopt;
    }
    out.push_back(std::move(*payload));
  }
  return out;
}

std::optional<std::vector<std::vector<uint8_t>>> PlatterSetCodec::RecoverTrack(
    const std::vector<const GlassPlatter*>& available_info,
    const std::vector<size_t>& available_info_indices,
    const std::vector<const GlassPlatter*>& available_redundancy,
    const std::vector<size_t>& available_redundancy_indices,
    size_t missing_info_index, int track, Rng& rng, ReadStats* stats) const {
  auto check = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string("PlatterSetCodec::RecoverTrack: ") + what);
    }
  };
  check(available_info.size() == available_info_indices.size(),
        "available_info and available_info_indices differ in size");
  check(available_redundancy.size() == available_redundancy_indices.size(),
        "available_redundancy and available_redundancy_indices differ in size");
  const auto below = [](const std::vector<size_t>& indices, int bound) {
    return std::all_of(indices.begin(), indices.end(),
                       [&](size_t i) { return i < static_cast<size_t>(bound); });
  };
  check(below(available_info_indices, set_.info),
        "available_info_indices entry >= set.info");
  check(below(available_redundancy_indices, set_.redundancy),
        "available_redundancy_indices entry >= set.redundancy");
  check(missing_info_index < static_cast<size_t>(set_.info),
        "missing_info_index >= set.info");

  const MediaGeometry& g = plane_->geometry();
  const size_t sectors = static_cast<size_t>(g.sectors_per_track());
  const size_t payload_bytes = plane_->sector_payload_bytes();
  const size_t words = (payload_bytes + 1) / 2;

  // Assemble the group's information shards; the missing platter's shards (and any
  // unavailable platters') are the unknowns.
  std::vector<std::vector<uint16_t>> info_words(
      static_cast<size_t>(set_.info) * sectors, std::vector<uint16_t>(words, 0));
  std::vector<uint8_t> have(static_cast<size_t>(set_.info), 0);
  for (size_t i = 0; i < available_info.size(); ++i) {
    const size_t p = available_info_indices[i];
    auto payloads = AllTrackPayloads(*available_info[i], track, rng, stats);
    if (!payloads) {
      continue;  // platter unreadable at this track; treat as missing
    }
    for (size_t s = 0; s < sectors; ++s) {
      info_words[p * sectors + s] = BytesToWords((*payloads)[s]);
    }
    have[p] = 1;
  }

  std::vector<size_t> missing;
  for (size_t p = 0; p < static_cast<size_t>(set_.info); ++p) {
    if (!have[p]) {
      for (size_t s = 0; s < sectors; ++s) {
        missing.push_back(p * sectors + s);
      }
    }
  }
  if (have[missing_info_index]) {
    return std::nullopt;  // caller error: the "missing" platter was provided
  }

  // Decode surviving redundancy shards, in platter order, only until there
  // are as many as unknowns (a square system); a platter whose track is
  // unreadable yields none and the next one is read instead.
  std::vector<size_t> red_indices;
  std::vector<std::vector<uint16_t>> red_words;
  for (size_t i = 0;
       i < available_redundancy.size() && red_indices.size() < missing.size(); ++i) {
    const size_t r = available_redundancy_indices[i];
    auto payloads = AllTrackPayloads(*available_redundancy[i], track, rng, stats);
    if (!payloads) {
      continue;
    }
    for (size_t s = 0; s < sectors; ++s) {
      red_indices.push_back(r * sectors + s);
      red_words.push_back(BytesToWords((*payloads)[s]));
    }
  }
  if (red_indices.size() < missing.size()) {
    return std::nullopt;  // set lost beyond R_p tolerance
  }
  // Every redundancy platter adds S shards and `missing` is a multiple of S,
  // so the system is already square.

  std::vector<std::span<uint16_t>> info_views(info_words.size());
  for (size_t i = 0; i < info_words.size(); ++i) {
    info_views[i] = info_words[i];
  }
  std::vector<std::span<const uint16_t>> red_views(red_words.size());
  for (size_t i = 0; i < red_words.size(); ++i) {
    red_views[i] = red_words[i];
  }
  if (!codec_.RecoverInfo(info_views, missing, red_indices, red_views,
                          plane_->thread_pool())) {
    return std::nullopt;
  }

  std::vector<std::vector<uint8_t>> out(sectors);
  for (size_t s = 0; s < sectors; ++s) {
    out[s] = WordsToBytes(info_words[missing_info_index * sectors + s],
                          payload_bytes);
  }
  if (stats != nullptr) {
    stats->platter_set_recoveries += sectors;
  }
  if (plane_->stage_counters().platter_set_recoveries != nullptr) {
    plane_->stage_counters().platter_set_recoveries->Increment(
        static_cast<double>(sectors));
  }
  return out;
}

}  // namespace silica
