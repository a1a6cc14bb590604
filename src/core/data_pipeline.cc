#include "core/data_pipeline.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "common/thread_pool.h"
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
// `platter` (failed voxels stored as kMissingVoxel). Determinism contract: with
// no pool (or one worker) the sectors consume `rng` sequentially in (track,
// sector) order — byte-identical to the unthreaded build. With more workers
// the parent stream is advanced once and each sector draws noise from a forked
// child keyed by its flat index, so the platter is deterministic and the same
// for every worker count > 1.
void WriteSectors(const DataPlane& plane,
                  const std::vector<std::vector<std::vector<uint8_t>>>& payloads,
                  GlassPlatter& platter, Rng& rng) {
  const MediaGeometry& g = plane.geometry();
  const size_t sectors = static_cast<size_t>(g.sectors_per_track());
  auto write_one = [&](size_t idx, Rng& noise) {
    auto symbols = plane.sector_codec().EncodeSector(payloads[idx / sectors][idx % sectors]);
    const auto analog = plane.write_channel().WriteSector(symbols, g.sector_rows,
                                                          g.sector_cols, noise);
    for (size_t v = 0; v < symbols.size(); ++v) {
      if (analog.missing[v]) {
        symbols[v] = kMissingVoxel;
      }
    }
    return symbols;
  };
  auto address = [&](size_t idx) {
    return SectorAddress{static_cast<int>(idx / sectors),
                         static_cast<int>(idx % sectors)};
  };
  const size_t total = payloads.size() * sectors;
  ThreadPool* pool = plane.thread_pool();
  if (pool == nullptr || pool->size() <= 1) {
    for (size_t idx = 0; idx < total; ++idx) {
      platter.WriteSector(address(idx), write_one(idx, rng));
    }
    return;
  }
  const Rng base = rng;
  rng.NextU64();
  std::vector<std::vector<uint16_t>> grid(total);
  ParallelFor(pool, total, [&](size_t idx) {
    Rng child = base.Fork(idx);
    grid[idx] = write_one(idx, child);
  });
  for (size_t idx = 0; idx < total; ++idx) {
    platter.WriteSector(address(idx), std::move(grid[idx]));
  }
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

std::vector<VoxelObservable> PlatterReader::ImageSector(const GlassPlatter& platter,
                                                       SectorAddress address,
                                                       Rng& rng) const {
  const MediaGeometry& g = plane_->geometry();
  const auto symbols = platter.SectorSymbols(address);
  // Aged glass measures noisier than the decoder's pristine priors assume; the
  // pristine path is untouched (bit-identical) when the platter never aged.
  const ReadChannel aged(plane_->read_channel().params().Aged(platter.age_stress()));
  const ReadChannel& channel =
      platter.age_stress() > 0.0 ? aged : plane_->read_channel();
  return channel.ReadSymbols(plane_->constellation(), symbols, g.sector_rows,
                             g.sector_cols, rng);
}

std::optional<std::vector<uint8_t>> PlatterReader::DecodeImage(
    std::span<const VoxelObservable> image) const {
  return plane_->sector_codec().DecodeFromLlrs(plane_->soft_decoder().DemapToLlrs(image));
}

std::optional<std::vector<uint8_t>> PlatterReader::DecodeSector(
    const GlassPlatter& platter, SectorAddress address, Rng& rng) const {
  return DecodeImage(ImageSector(platter, address, rng));
}

std::vector<std::optional<std::vector<uint8_t>>> PlatterReader::ReadTrackPayloads(
    const GlassPlatter& platter, int track, Rng& rng, ReadStats* stats) const {
  const std::vector<uint8_t> all(
      static_cast<size_t>(plane_->geometry().sectors_per_track()), 1);
  return ReadTrack(platter, track, all, rng, stats);
}

std::vector<std::optional<std::vector<uint8_t>>> PlatterReader::ReadTrack(
    const GlassPlatter& platter, int track, std::span<const uint8_t> wanted,
    Rng& rng, ReadStats* stats) const {
  const MediaGeometry& g = plane_->geometry();
  const size_t sectors = static_cast<size_t>(g.sectors_per_track());
  const size_t info_sectors = static_cast<size_t>(g.info_sectors_per_track);
  assert(wanted.size() == sectors);

  std::vector<std::optional<std::vector<uint8_t>>> decoded(sectors);
  std::vector<uint8_t> attempted(sectors, 0);
  const DataPlane::StageCounters& counters = plane_->stage_counters();
  ThreadPool* pool = plane_->thread_pool();
  const bool parallel = pool != nullptr && pool->size() > 1;
  const auto decode_start = std::chrono::steady_clock::now();

  // Determinism contract: the noise each sector sees is independent of which
  // sectors are decoded. Parallel: sector s is imaged from a child stream forked
  // by its index and the parent advances exactly once, so unwanted sectors are
  // simply never imaged. Serial: every sector is imaged from the shared stream
  // in index order (consumption as for a full read) and only the decode is
  // skipped; unwanted images are kept in case the fallback needs them.
  const Rng base = rng;
  std::vector<std::vector<VoxelObservable>> images;
  if (parallel) {
    rng.NextU64();
  } else {
    images.resize(sectors);
    for (size_t s = 0; s < sectors; ++s) {
      images[s] = ImageSector(platter, {track, static_cast<int>(s)}, rng);
    }
  }
  // Decodes every not-yet-attempted sector `pick` selects. Counters are not
  // thread-safe, so the fan-out only writes decoded[s]; tallies run after.
  auto decode_pass = [&](auto pick) {
    std::vector<size_t> todo;
    for (size_t s = 0; s < sectors; ++s) {
      if (!attempted[s] && pick(s)) {
        attempted[s] = 1;
        todo.push_back(s);
      }
    }
    if (parallel) {
      ParallelFor(pool, todo.size(), [&](size_t i) {
        const size_t s = todo[i];
        Rng child = base.Fork(s);
        decoded[s] = DecodeSector(platter, {track, static_cast<int>(s)}, child);
      });
    } else {
      for (size_t s : todo) {
        decoded[s] = DecodeImage(images[s]);
      }
    }
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
  for (size_t s = 0; s < sectors; ++s) {
    if (!attempted[s]) {
      continue;
    }
    ++sectors_decoded;
    if (stats != nullptr) {
      ++stats->sectors_read;
      if (!decoded[s]) {
        ++stats->ldpc_failures;
      }
    }
    if (counters.sectors_read != nullptr) {
      counters.sectors_read->Increment();
      if (!decoded[s]) {
        counters.ldpc_failures->Increment();
      }
    }
  }
  if (counters.decode_wall_seconds != nullptr) {
    counters.decode_wall_seconds->Set(wall_seconds);
  }
  if (counters.sectors_per_second != nullptr && wall_seconds > 0.0) {
    counters.sectors_per_second->Set(static_cast<double>(sectors_decoded) /
                                     wall_seconds);
  }

  // Within-track recovery of missing information sectors. Without the fallback
  // no attempted information sector failed, so nothing is missing and the
  // unattempted ones stay nullopt.
  std::vector<size_t> missing;
  for (size_t s = 0; s < info_sectors; ++s) {
    if (attempted[s] && !decoded[s]) {
      missing.push_back(s);
    }
  }
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
    std::vector<std::span<uint8_t>> recovered_views;
    for (auto& r : recovered) {
      recovered_views.emplace_back(r);
    }
    if (plane_->track_codec().Reconstruct(present_indices, present, missing,
                                          recovered_views, pool)) {
      for (size_t m = 0; m < missing.size(); ++m) {
        decoded[missing[m]] = std::move(recovered[m]);
        if (stats != nullptr) {
          ++stats->track_nc_recoveries;
        }
        if (counters.track_nc_recoveries != nullptr) {
          counters.track_nc_recoveries->Increment();
        }
      }
      missing.clear();
    }
  }

  // Large-group recovery across tracks for anything still missing (only
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
    const std::vector<uint8_t> zero_payload(plane_->sector_payload_bytes(), 0);

    std::vector<size_t> still_missing;
    for (size_t pos : missing) {
      // Gather the group's shards at this sector position.
      std::vector<size_t> present_indices;
      std::vector<std::vector<uint8_t>> present_storage;
      for (size_t i = 0; i < group_info; ++i) {
        if (i == my_offset) {
          continue;
        }
        const size_t t = grp * group_info + i;
        if (t >= info_tracks) {
          present_indices.push_back(i);
          present_storage.push_back(zero_payload);  // padded short group
          continue;
        }
        auto shard = DecodeSector(platter, {static_cast<int>(t),
                                            static_cast<int>(pos)}, rng);
        if (stats != nullptr) {
          ++stats->recovery_reads;
        }
        if (counters.recovery_reads != nullptr) {
          counters.recovery_reads->Increment();
        }
        if (shard) {
          present_indices.push_back(i);
          present_storage.push_back(std::move(*shard));
        }
      }
      for (size_t r = 0; r < group_red; ++r) {
        const size_t t = info_tracks + grp * group_red + r;
        auto shard = DecodeSector(platter, {static_cast<int>(t),
                                            static_cast<int>(pos)}, rng);
        if (stats != nullptr) {
          ++stats->recovery_reads;
        }
        if (counters.recovery_reads != nullptr) {
          counters.recovery_reads->Increment();
        }
        if (shard) {
          present_indices.push_back(group_info + r);
          present_storage.push_back(std::move(*shard));
        }
      }
      std::vector<std::span<const uint8_t>> present;
      for (auto& p : present_storage) {
        present.emplace_back(p);
      }
      std::vector<uint8_t> recovered(plane_->sector_payload_bytes());
      std::span<uint8_t> recovered_view(recovered);
      const std::vector<size_t> want = {my_offset};
      if (plane_->large_group_codec().Reconstruct(
              present_indices, present, want,
              std::span<const std::span<uint8_t>>(&recovered_view, 1), pool)) {
        decoded[pos] = std::move(recovered);
        if (stats != nullptr) {
          ++stats->large_nc_recoveries;
        }
        if (counters.large_nc_recoveries != nullptr) {
          counters.large_nc_recoveries->Increment();
        }
      } else {
        still_missing.push_back(pos);
      }
    }
    missing = std::move(still_missing);
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
  std::vector<std::vector<uint16_t>> red_words(
      static_cast<size_t>(set_.redundancy) * sectors);
  for (size_t t = 0; t < all_tracks; ++t) {
    for (auto& w : red_words) {
      w.assign(words, 0);
    }
    std::vector<std::span<uint16_t>> red_views(red_words.size());
    for (size_t i = 0; i < red_words.size(); ++i) {
      red_views[i] = red_words[i];
    }
    for (size_t p = 0; p < info_platters.size(); ++p) {
      for (size_t s = 0; s < sectors; ++s) {
        const auto shard = BytesToWords(info_platters[p]->payloads[t][s]);
        codec_.EncodeAccumulate(p * sectors + s, shard, red_views,
                                plane_->thread_pool());
      }
    }
    for (int r = 0; r < set_.redundancy; ++r) {
      for (size_t s = 0; s < sectors; ++s) {
        out[static_cast<size_t>(r)].payloads[t][s] = WordsToBytes(
            red_words[static_cast<size_t>(r) * sectors + s], payload_bytes);
      }
    }
  }

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

  // Decode surviving redundancy shards.
  std::vector<size_t> red_indices;
  std::vector<std::vector<uint16_t>> red_words;
  for (size_t i = 0; i < available_redundancy.size(); ++i) {
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
  // Use only as many redundancy shards as unknowns (square system).
  red_indices.resize(missing.size());
  red_words.resize(missing.size());

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
