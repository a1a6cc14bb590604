#include "core/data_pipeline.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
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

PlatterReader::TrackPass PlatterReader::PlanTrack(const GlassPlatter& platter, int track,
                                                  std::vector<uint8_t> wanted, Rng& rng) {
  TrackPass pass{&platter, track, std::move(wanted), rng};
  rng.NextU64();
  return pass;
}

PlatterReader::TrackPayloads PlatterReader::ReadTrack(const GlassPlatter& platter,
                                                      int track,
                                                      std::span<const uint8_t> wanted,
                                                      Rng& rng, ReadStats* stats,
                                                      int retries) const {
  const TrackPass pass =
      PlanTrack(platter, track, std::vector<uint8_t>(wanted.begin(), wanted.end()), rng);
  TrackRead read = std::move(ReadPass({&pass, 1}, retries).front());
  Account(read.stats, stats, /*recovery=*/false);
  return std::move(read.payloads);
}

void PlatterReader::Account(const ReadStats& read, ReadStats* stats,
                            bool recovery) const {
  const uint64_t sectors_read = recovery ? 0 : read.sectors_read;
  const uint64_t recovery_reads =
      read.recovery_reads + (recovery ? read.sectors_read : 0);
  if (stats != nullptr) {
    if (recovery) {
      stats->recovery_reads += recovery_reads;
    } else {
      stats->sectors_read += read.sectors_read;
      stats->ldpc_failures += read.ldpc_failures;
      stats->track_nc_recoveries += read.track_nc_recoveries;
      stats->large_nc_recoveries += read.large_nc_recoveries;
      stats->ldpc_retry_recoveries += read.ldpc_retry_recoveries;
      stats->recovery_reads += read.recovery_reads;
      stats->used_large_group = stats->used_large_group || read.used_large_group;
    }
  }
  const DataPlane::StageCounters& counters = plane_->stage_counters();
  for (const auto& [counter, n] :
       {std::pair{counters.sectors_read, sectors_read},
        std::pair{counters.ldpc_failures, read.ldpc_failures},
        std::pair{counters.track_nc_recoveries, read.track_nc_recoveries},
        std::pair{counters.large_nc_recoveries, read.large_nc_recoveries},
        std::pair{counters.recovery_reads, recovery_reads}}) {
    if (counter != nullptr && n > 0) {
      counter->Increment(static_cast<double>(n));
    }
  }
}

std::vector<PlatterReader::TrackRead> PlatterReader::ReadPass(
    std::span<const TrackPass> passes, int retries) const {
  const MediaGeometry& g = plane_->geometry();
  const size_t sectors = static_cast<size_t>(g.sectors_per_track());
  const size_t info_sectors = static_cast<size_t>(g.info_sectors_per_track);
  const size_t payload_bytes = plane_->sector_payload_bytes();
  const DataPlane::StageCounters& counters = plane_->stage_counters();
  ThreadPool* pool = plane_->thread_pool();

  // Determinism contract: sector (t, s), of a pass's track or of a large-group
  // peer, draws its noise from base.Fork(t * S + s) of that track pass; retry
  // a >= 1 of it adds a * (sectors on the platter) to that key, so no two
  // images of a track pass share a stream. Which sectors are decoded, in
  // which fan-out, and on how many threads never changes what any sector sees.
  const size_t sector_keys = static_cast<size_t>(g.tracks_per_platter()) * sectors;
  auto decode = [&](const TrackPass& pass, size_t t, size_t s, int attempt) {
    Rng noise =
        pass.base.Fork(static_cast<size_t>(attempt) * sector_keys + t * sectors + s);
    return DecodeSector(*pass.platter, {static_cast<int>(t), static_cast<int>(s)},
                        noise);
  };

  for ([[maybe_unused]] const TrackPass& pass : passes) {
    assert(pass.wanted.size() == sectors);
  }
  std::vector<TrackRead> reads(passes.size());
  std::vector<std::vector<uint8_t>> attempted(passes.size(),
                                              std::vector<uint8_t>(sectors, 0));
  for (TrackRead& read : reads) {
    read.payloads.resize(sectors);
  }
  // Fan-outs only write their own slots; stats are tallied after each one.
  // Decodes every not-yet-attempted sector `pick(pass, sector)` selects.
  auto decode_all = [&](auto pick) {
    std::vector<std::pair<size_t, size_t>> todo;
    for (size_t p = 0; p < passes.size(); ++p) {
      for (size_t s = 0; s < sectors; ++s) {
        if (!attempted[p][s] && pick(p, s)) {
          attempted[p][s] = 1;
          todo.emplace_back(p, s);
        }
      }
    }
    ParallelFor(pool, todo.size(), [&](size_t i) {
      const auto [p, s] = todo[i];
      reads[p].payloads[s] =
          decode(passes[p], static_cast<size_t>(passes[p].track), s, 0);
    });
  };
  const auto decode_start = std::chrono::steady_clock::now();
  decode_all([&](size_t p, size_t s) { return passes[p].wanted[s] != 0; });
  // Fallback: a failed wanted information sector needs NC, which needs the rest
  // of its track, so from here on that track pass is a full-track read.
  std::vector<uint8_t> fallback(passes.size(), 0);
  for (size_t p = 0; p < passes.size(); ++p) {
    for (size_t s = 0; s < info_sectors; ++s) {
      fallback[p] |= passes[p].wanted[s] && !reads[p].payloads[s] ? 1 : 0;
    }
  }
  decode_all([&](size_t p, size_t) { return fallback[p] != 0; });
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - decode_start)
          .count();

  // Without the fallback no attempted information sector failed, so nothing is
  // missing and the unattempted ones stay nullopt.
  std::vector<std::vector<size_t>> missing(passes.size());
  uint64_t sectors_decoded = 0;
  for (size_t p = 0; p < passes.size(); ++p) {
    ReadStats& stats = reads[p].stats;
    for (size_t s = 0; s < sectors; ++s) {
      const bool failed = attempted[p][s] && !reads[p].payloads[s];
      stats.sectors_read += attempted[p][s];
      stats.ldpc_failures += failed;
      if (failed && s < info_sectors) {
        missing[p].push_back(s);
      }
    }
    sectors_decoded += stats.sectors_read;
  }
  if (counters.decode_wall_seconds != nullptr) {
    counters.decode_wall_seconds->Set(wall_seconds);
  }
  if (counters.sectors_per_second != nullptr && wall_seconds > 0.0) {
    counters.sectors_per_second->Set(static_cast<double>(sectors_decoded) /
                                     wall_seconds);
  }

  // Tier 0: re-image each failed information sector; marginal sectors on aged
  // glass often decode on a fresh noise draw.
  if (retries > 0) {
    std::vector<std::pair<size_t, size_t>> failed;
    for (size_t p = 0; p < passes.size(); ++p) {
      for (const size_t s : missing[p]) {
        failed.emplace_back(p, s);
      }
    }
    std::vector<int> tries(failed.size(), 0);
    ParallelFor(pool, failed.size(), [&](size_t i) {
      const auto [p, s] = failed[i];
      auto& payload = reads[p].payloads[s];
      while (!payload && tries[i] < retries) {
        payload = decode(passes[p], static_cast<size_t>(passes[p].track), s, ++tries[i]);
      }
    });
    for (size_t i = 0; i < failed.size(); ++i) {
      ReadStats& stats = reads[failed[i].first].stats;
      stats.recovery_reads += static_cast<uint64_t>(tries[i]);
      stats.ldpc_retry_recoveries += reads[failed[i].first].payloads[failed[i].second] ? 1 : 0;
    }
    for (size_t p = 0; p < passes.size(); ++p) {
      std::erase_if(missing[p], [&](size_t s) { return reads[p].payloads[s].has_value(); });
    }
  }

  // Tier 1: within-track NC over every sector of the track that decoded.
  for (size_t p = 0; p < passes.size(); ++p) {
    if (missing[p].empty()) {
      continue;
    }
    TrackPayloads& decoded = reads[p].payloads;
    std::vector<size_t> present_indices;
    std::vector<std::span<const uint8_t>> present;
    for (size_t s = 0; s < sectors; ++s) {
      if (decoded[s]) {
        present_indices.push_back(s);
        present.emplace_back(*decoded[s]);
      }
    }
    std::vector<std::vector<uint8_t>> recovered(missing[p].size(),
                                                std::vector<uint8_t>(payload_bytes));
    std::vector<std::span<uint8_t>> recovered_views(recovered.begin(), recovered.end());
    if (plane_->track_codec().Reconstruct(present_indices, present, missing[p],
                                          recovered_views, pool)) {
      for (size_t m = 0; m < missing[p].size(); ++m) {
        decoded[missing[p][m]] = std::move(recovered[m]);
      }
      reads[p].stats.track_nc_recoveries += missing[p].size();
      missing[p].clear();
    }
  }

  if (std::all_of(missing.begin(), missing.end(),
                  [](const std::vector<size_t>& m) { return m.empty(); })) {
    return reads;
  }

  // Tier 2: the large group across tracks, per missing sector position (only
  // information tracks belong to large groups). A group's shards in codec
  // order are its information tracks, then its redundancy tracks; information
  // slots past the platter's last track pad a short final group with zeros.
  const size_t group_info = static_cast<size_t>(g.large_group_info_tracks);
  const size_t group_red = static_cast<size_t>(g.large_group_redundancy_tracks);
  const size_t info_tracks = static_cast<size_t>(g.info_tracks_per_platter);
  // The pass's whole-track reads, by platter and track: their sectors are
  // lent to large-group peers instead of imaged again.
  std::map<std::pair<const GlassPlatter*, size_t>, size_t> whole_tracks;
  for (size_t p = 0; p < passes.size(); ++p) {
    const auto& wanted = passes[p].wanted;
    if (std::all_of(wanted.begin(), wanted.end(), [](uint8_t w) { return w != 0; })) {
      whole_tracks.try_emplace({passes[p].platter, static_cast<size_t>(passes[p].track)},
                               p);
    }
  }
  // One reconstruction per missing (pass, position); each shard is lent by the
  // pass, padding, or an image in `images`.
  struct Shard {
    size_t index = 0;                                // codec shard index
    const std::optional<std::vector<uint8_t>>* lent = nullptr;
    size_t image = SIZE_MAX;                         // into `images`
  };
  struct Rebuild {
    size_t pass = 0;
    size_t pos = 0;
    size_t my_offset = 0;
    std::vector<Shard> shards;
  };
  struct Image {
    size_t pass = 0;
    size_t track = 0;
    size_t pos = 0;
    std::optional<std::vector<uint8_t>> payload;
  };
  const std::optional<std::vector<uint8_t>> zero_payload(std::vector<uint8_t>(payload_bytes, 0));
  std::vector<Rebuild> rebuilds;
  std::vector<Image> images;
  for (size_t p = 0; p < passes.size(); ++p) {
    const size_t track = static_cast<size_t>(passes[p].track);
    if (missing[p].empty() || track >= info_tracks) {
      continue;
    }
    reads[p].stats.used_large_group = true;
    const size_t grp = track / group_info;
    for (const size_t pos : missing[p]) {
      Rebuild rebuild{p, pos, track % group_info, {}};
      for (size_t i = 0; i < group_info + group_red; ++i) {
        if (i == rebuild.my_offset) {
          continue;
        }
        Shard shard{.index = i};
        const size_t t = i < group_info ? grp * group_info + i
                                        : info_tracks + grp * group_red + (i - group_info);
        if (i < group_info && t >= info_tracks) {
          shard.lent = &zero_payload;
        } else if (const auto it = whole_tracks.find({passes[p].platter, t});
                   it != whole_tracks.end()) {
          shard.lent = &reads[it->second].payloads[pos];
        } else {
          shard.image = images.size();
          images.push_back(Image{p, t, pos, std::nullopt});
          ++reads[p].stats.recovery_reads;
        }
        rebuild.shards.push_back(shard);
      }
      rebuilds.push_back(std::move(rebuild));
    }
  }
  ParallelFor(pool, images.size(), [&](size_t i) {
    images[i].payload = decode(passes[images[i].pass], images[i].track, images[i].pos, 0);
  });
  // Reconstruct from the lent shards as they stand after tiers 0-1, and only
  // then store the results, so no rebuild sees another's.
  std::vector<std::optional<std::vector<uint8_t>>> rebuilt(rebuilds.size());
  for (size_t r = 0; r < rebuilds.size(); ++r) {
    std::vector<size_t> present_indices;
    std::vector<std::span<const uint8_t>> present;
    for (const Shard& shard : rebuilds[r].shards) {
      const auto& payload = shard.lent != nullptr ? *shard.lent : images[shard.image].payload;
      if (payload) {
        present_indices.push_back(shard.index);
        present.emplace_back(*payload);
      }
    }
    std::vector<uint8_t> recovered(payload_bytes);
    std::span<uint8_t> recovered_view(recovered);
    const std::vector<size_t> want = {rebuilds[r].my_offset};
    if (plane_->large_group_codec().Reconstruct(
            present_indices, present, want,
            std::span<const std::span<uint8_t>>(&recovered_view, 1), pool)) {
      rebuilt[r] = std::move(recovered);
    }
  }
  for (size_t r = 0; r < rebuilds.size(); ++r) {
    if (rebuilt[r]) {
      reads[rebuilds[r].pass].payloads[rebuilds[r].pos] = std::move(rebuilt[r]);
      ++reads[rebuilds[r].pass].stats.large_nc_recoveries;
    }
  }
  return reads;
}

std::optional<std::vector<uint8_t>> PlatterReader::ReadFile(
    const GlassPlatter& platter, const PlatterFileEntry& entry, Rng& rng,
    ReadStats* stats) const {
  return std::move(ReadFiles(platter, {&entry, 1}, rng, stats).front());
}

std::vector<std::optional<std::vector<uint8_t>>> PlatterReader::ReadFiles(
    const GlassPlatter& platter, std::span<const PlatterFileEntry> entries, Rng& rng,
    ReadStats* stats) const {
  const MediaGeometry& g = plane_->geometry();
  const uint64_t payload_bytes = plane_->sector_payload_bytes();
  const uint64_t per_track = static_cast<uint64_t>(g.info_sectors_per_track);
  const uint64_t capacity =
      static_cast<uint64_t>(g.info_tracks_per_platter) * per_track;
  // Each file's serpentine sector extent [first, end).
  std::vector<std::pair<uint64_t, uint64_t>> extents;
  for (const PlatterFileEntry& entry : entries) {
    const uint64_t need = std::max<uint64_t>(
        1, entry.size_bytes / payload_bytes + (entry.size_bytes % payload_bytes != 0));
    const uint64_t first = entry.start_sector_index;
    if (first > capacity || need > capacity - first) {
      throw std::out_of_range("PlatterReader: file " + std::to_string(entry.file_id) +
                              " ('" + entry.name +
                              "') extends past the platter's information sectors");
    }
    extents.emplace_back(first, first + need);
  }
  // A file's extent touches consecutive tracks; calls fn(lo, hi) for the
  // sector range [lo, hi) of each, in order, until fn returns false.
  auto for_each_track = [&](size_t f, auto fn) {
    const auto [first, end] = extents[f];
    for (uint64_t lo = first, hi = 0; lo < end; lo = hi) {
      hi = std::min(end, (lo / per_track + 1) * per_track);
      if (!fn(lo, hi)) {
        return;
      }
    }
  };

  // ReadFile reads each touched track once, in order, decoding only the file's
  // sectors, and stops before the next track once a sector is unrecoverable.
  // A pass plans every remaining file's tracks as though none stops; when one
  // does stop early, the tracks planned after it drew the wrong bases, so the
  // files after it are planned and read again from the stream state there.
  std::vector<std::optional<std::vector<uint8_t>>> out(entries.size());
  for (size_t next = 0; next < entries.size();) {
    std::vector<TrackPass> passes;
    for (size_t f = next; f < entries.size(); ++f) {
      for_each_track(f, [&](uint64_t lo, uint64_t hi) {
        std::vector<uint8_t> wanted(static_cast<size_t>(g.sectors_per_track()), 0);
        for (uint64_t i = lo; i < hi; ++i) {
          wanted[static_cast<size_t>(SerpentineSectorAddress(g, i).sector)] = 1;
        }
        passes.push_back(
            PlanTrack(platter, SerpentineSectorAddress(g, lo).track, std::move(wanted), rng));
        return true;
      });
    }
    const std::vector<TrackRead> reads = ReadPass(passes);
    size_t p = 0;
    const size_t from = next;
    next = entries.size();
    for (size_t f = from; f < next; ++f) {
      const PlatterFileEntry& entry = entries[f];
      const uint64_t first = extents[f].first;
      std::vector<uint8_t> bytes;
      bytes.reserve(entry.size_bytes);
      bool lost = false;
      for_each_track(f, [&](uint64_t lo, uint64_t hi) {
        const TrackRead& read = reads[p++];
        Account(read.stats, stats, /*recovery=*/false);
        for (uint64_t i = lo; i < hi && !lost; ++i) {
          const auto& payload =
              read.payloads[static_cast<size_t>(SerpentineSectorAddress(g, i).sector)];
          if (!payload) {
            lost = true;  // unrecoverable on-platter
            break;
          }
          const size_t len = static_cast<size_t>(
              std::min(payload_bytes, entry.size_bytes - (i - first) * payload_bytes));
          bytes.insert(bytes.end(), payload->begin(),
                       payload->begin() + static_cast<long>(len));
        }
        if (lost && hi < extents[f].second) {
          rng = passes[p].base;  // the stream as it stood after this track
          next = f + 1;
        }
        return !lost;
      });
      if (!lost) {
        out[f] = std::move(bytes);
      }
    }
  }
  return out;
}

VerifyReport PlatterVerifier::Verify(const GlassPlatter& platter, Rng& rng) const {
  const MediaGeometry& g = plane_->geometry();
  PlatterReader reader(*plane_);
  // Every track in one pass: a large-group peer is lent by its own track read.
  const std::vector<uint8_t> every_sector(static_cast<size_t>(g.sectors_per_track()), 1);
  std::vector<PlatterReader::TrackPass> passes;
  for (int t = 0; t < g.tracks_per_platter(); ++t) {
    passes.push_back(PlatterReader::PlanTrack(platter, t, every_sector, rng));
  }
  VerifyReport report;
  for (const PlatterReader::TrackRead& read : reader.ReadPass(passes)) {
    reader.Account(read.stats, nullptr, /*recovery=*/false);
    report.sectors_total += read.stats.sectors_read;
    report.sector_erasures += read.stats.ldpc_failures;
    report.track_nc_recoveries += read.stats.track_nc_recoveries;
    report.large_nc_recoveries += read.stats.large_nc_recoveries;
    report.unrecoverable_sectors += static_cast<uint64_t>(
        std::count(read.payloads.begin(), read.payloads.end(), std::nullopt));
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

  // Reads `track` of each platter whole in one pass, as recovery reads, in
  // order, one stream advance each; nullopt for a platter whose track some
  // sector of stays unreadable.
  PlatterReader reader(*plane_);
  const std::vector<uint8_t> every_sector(sectors, 1);
  auto read_tracks = [&](std::span<const GlassPlatter* const> platters) {
    std::vector<PlatterReader::TrackPass> passes;
    for (const GlassPlatter* platter : platters) {
      passes.push_back(PlatterReader::PlanTrack(*platter, track, every_sector, rng));
    }
    std::vector<std::optional<std::vector<std::vector<uint16_t>>>> track_words(
        platters.size());
    std::vector<PlatterReader::TrackRead> reads = reader.ReadPass(passes);
    for (size_t i = 0; i < reads.size(); ++i) {
      reader.Account(reads[i].stats, stats, /*recovery=*/true);
      const auto& payloads = reads[i].payloads;
      if (std::all_of(payloads.begin(), payloads.end(),
                      [](const auto& payload) { return payload.has_value(); })) {
        auto& shards = track_words[i].emplace();
        for (const auto& payload : payloads) {
          shards.push_back(BytesToWords(*payload));
        }
      }
    }
    return track_words;
  };

  // One pass reads the available information platters and the redundancy
  // platters that square the system if all of those read; the caller-error
  // case (the "missing" platter provided) reads no redundancy up front.
  std::vector<uint8_t> provided(static_cast<size_t>(set_.info), 0);
  for (const size_t p : available_info_indices) {
    provided[p] = 1;
  }
  const size_t expected_red = std::min<size_t>(
      provided[missing_info_index]
          ? 0
          : static_cast<size_t>(std::count(provided.begin(), provided.end(), 0)),
      available_redundancy.size());
  std::vector<const GlassPlatter*> first_pass = available_info;
  first_pass.insert(first_pass.end(), available_redundancy.begin(),
                    available_redundancy.begin() + static_cast<long>(expected_red));
  auto first_words = read_tracks(first_pass);

  // Assemble the group's information shards; the missing platter's shards (and any
  // unreadable platters') are the unknowns.
  std::vector<std::vector<uint16_t>> info_words(
      static_cast<size_t>(set_.info) * sectors, std::vector<uint16_t>(words, 0));
  std::vector<uint8_t> have(static_cast<size_t>(set_.info), 0);
  for (size_t i = 0; i < available_info.size(); ++i) {
    if (!first_words[i]) {
      continue;  // platter unreadable at this track; treat as missing
    }
    const size_t p = available_info_indices[i];
    for (size_t s = 0; s < sectors; ++s) {
      info_words[p * sectors + s] = std::move((*first_words[i])[s]);
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

  // Surviving redundancy shards, in platter order, only until there are as
  // many as unknowns (a square system); a platter whose track is unreadable
  // yields none and the next one is read, on its own, instead.
  std::vector<size_t> red_indices;
  std::vector<std::vector<uint16_t>> red_words;
  auto add_redundancy = [&](size_t i,
                            std::optional<std::vector<std::vector<uint16_t>>>& shards) {
    if (!shards) {
      return;
    }
    for (size_t s = 0; s < sectors; ++s) {
      red_indices.push_back(available_redundancy_indices[i] * sectors + s);
      red_words.push_back(std::move((*shards)[s]));
    }
  };
  for (size_t i = 0; i < expected_red; ++i) {
    add_redundancy(i, first_words[available_info.size() + i]);
  }
  for (size_t i = expected_red;
       i < available_redundancy.size() && red_indices.size() < missing.size(); ++i) {
    add_redundancy(i, read_tracks({&available_redundancy[i], 1}).front());
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
