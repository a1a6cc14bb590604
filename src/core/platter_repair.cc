#include "core/platter_repair.h"

#include <algorithm>
#include <utility>

namespace silica {

PlatterRepairOutcome PlatterRepairer::Repair(
    const GlassPlatter& damaged, const PlatterSetCodec* set_codec,
    const std::vector<const GlassPlatter*>& peer_info,
    const std::vector<size_t>& peer_info_indices,
    const std::vector<const GlassPlatter*>& peer_redundancy,
    const std::vector<size_t>& peer_redundancy_indices, size_t index_in_set,
    Rng& rng) const {
  const MediaGeometry& g = plane_->geometry();
  const size_t info_sectors = static_cast<size_t>(g.info_sectors_per_track);
  const size_t info_tracks = static_cast<size_t>(g.info_tracks_per_platter);
  const size_t payload_bytes = plane_->sector_payload_bytes();
  const std::vector<uint8_t> every_sector(static_cast<size_t>(g.sectors_per_track()), 1);
  PlatterReader reader(*plane_);

  PlatterRepairOutcome outcome;
  // Recovered information payloads, grid[track][sector], info region only.
  std::vector<std::vector<std::vector<uint8_t>>> grid(
      info_tracks, std::vector<std::vector<uint8_t>>(info_sectors));

  for (size_t t = 0; t < info_tracks; ++t) {
    const int track = static_cast<int>(t);
    // Tiers 0-2 run inside the track read; attribute what it recovered.
    ReadStats stats;
    auto decoded =
        reader.ReadTrack(damaged, track, every_sector, rng, &stats, ldpc_retries_);
    std::vector<size_t> missing;
    for (size_t s = 0; s < info_sectors; ++s) {
      if (!decoded[s]) {
        missing.push_back(s);
      }
    }
    outcome.ledger.Add(RepairTier::kLdpcRetry, stats.ldpc_retry_recoveries);
    outcome.ledger.Add(RepairTier::kTrackNc, stats.track_nc_recoveries);
    outcome.ledger.Add(RepairTier::kLargeGroup, stats.large_nc_recoveries);
    outcome.ledger.detected += stats.ldpc_retry_recoveries + stats.track_nc_recoveries +
                               stats.large_nc_recoveries + missing.size();

    // Tier 3: rebuild the whole track from the 16+3 platter set.
    if (!missing.empty() && set_codec != nullptr) {
      auto track_payloads = set_codec->RecoverTrack(
          peer_info, peer_info_indices, peer_redundancy,
          peer_redundancy_indices, index_in_set, track, rng);
      if (track_payloads) {
        for (const size_t pos : missing) {
          decoded[pos] = std::move((*track_payloads)[pos]);
        }
        outcome.ledger.Add(RepairTier::kPlatterSet, missing.size());
        missing.clear();
      }
    }

    outcome.ledger.unrecoverable += missing.size();
    for (size_t s = 0; s < info_sectors; ++s) {
      if (decoded[s]) {
        grid[t][s] = std::move(*decoded[s]);
      }
    }
  }

  outcome.ledger.bytes_lost =
      outcome.ledger.unrecoverable * static_cast<uint64_t>(payload_bytes);
  outcome.data_intact = outcome.ledger.unrecoverable == 0;

  // Replace the decayed platter: reassemble the files from the repaired grid
  // and push them back through the ordinary write pipeline.
  if (outcome.data_intact && outcome.ledger.repaired_total() > 0) {
    std::vector<FileData> files;
    files.reserve(damaged.header().files.size());
    for (const auto& entry : damaged.header().files) {
      FileData file;
      file.file_id = entry.file_id;
      file.name = entry.name;
      file.bytes.reserve(entry.size_bytes);
      const uint64_t need = std::max<uint64_t>(
          1, (entry.size_bytes + payload_bytes - 1) / payload_bytes);
      for (uint64_t s = 0; s < need; ++s) {
        const SectorAddress addr =
            SerpentineSectorAddress(g, entry.start_sector_index + s);
        const auto& payload = grid[static_cast<size_t>(addr.track)]
                                  [static_cast<size_t>(addr.sector)];
        const size_t want = static_cast<size_t>(std::min<uint64_t>(
            payload_bytes, entry.size_bytes - s * payload_bytes));
        file.bytes.insert(file.bytes.end(), payload.begin(),
                          payload.begin() + static_cast<long>(want));
      }
      files.push_back(std::move(file));
    }
    outcome.rewritten =
        PlatterWriter(*plane_).WritePlatter(damaged.platter_id(), files, rng);
  }
  return outcome;
}

}  // namespace silica
