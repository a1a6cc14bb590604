#include "core/silica_service.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "ecc/simd/gf256_kernels.h"
#include "telemetry/telemetry.h"

namespace silica {

namespace {

ServiceConfig ValidateConfig(ServiceConfig config) {
  if (config.threads < 1) {
    throw std::invalid_argument(
        "ServiceConfig: threads must be >= 1 (got " +
        std::to_string(config.threads) + ")");
  }
  if (config.platter_set.info <= 0) {
    throw std::invalid_argument(
        "ServiceConfig: platter_set.info (data platters) must be > 0 (got " +
        std::to_string(config.platter_set.info) + ")");
  }
  if (config.platter_set.redundancy < 0) {
    throw std::invalid_argument(
        "ServiceConfig: platter_set.redundancy must be >= 0 (got " +
        std::to_string(config.platter_set.redundancy) + ")");
  }
  // Process-wide: kernels are stateless and every tier is bit-identical, so
  // applying the most recent service's choice globally is safe.
  SetSimdModeByName(config.simd);
  return config;
}

}  // namespace

SilicaService::SilicaService(ServiceConfig config)
    : config_(ValidateConfig(config)),
      pool_(config.threads > 1
                ? std::make_unique<ThreadPool>(static_cast<size_t>(config.threads))
                : nullptr),
      plane_(config.data_plane),
      writer_(plane_),
      reader_(plane_),
      verifier_(plane_),
      set_codec_(plane_, config.platter_set),
      rng_(config.seed) {
  plane_.SetThreadPool(pool_.get());
}

void SilicaService::Put(const std::string& name, uint64_t account,
                        std::vector<uint8_t> data) {
  const uint64_t capacity = plane_.geometry().payload_bytes_per_platter();
  if (data.size() > capacity) {
    throw std::invalid_argument("SilicaService::Put: file exceeds platter capacity");
  }
  staged_.push_back(PendingFile{name, account, std::move(data)});
}

SilicaService::FlushReport SilicaService::Flush() {
  FlushReport report;
  if (staged_.empty()) {
    return report;
  }

  // Pack staged files onto platters, keeping an account's files together.
  std::vector<StagedFile> to_place;
  to_place.reserve(staged_.size());
  for (size_t i = 0; i < staged_.size(); ++i) {
    to_place.push_back(StagedFile{
        .file_id = static_cast<uint64_t>(i),  // index into staged_
        .name = staged_[i].name,
        .account = staged_[i].account,
        .write_time = static_cast<double>(i),
        .bytes = staged_[i].data.size(),
    });
  }
  const auto plan =
      AssignFilesToPlatters(to_place, plane_.geometry(),
                            plane_.geometry().payload_bytes_per_platter());

  // Write and verify each planned platter; files on platters that fail
  // verification go back to staging (Section 5: "kept in staging and rewritten
  // onto a different platter later").
  std::vector<PendingFile> still_staged;
  std::vector<uint64_t> accepted_ids;
  std::vector<uint64_t> newly_accepted;
  std::vector<const WrittenPlatter*> accepted;

  std::vector<std::vector<size_t>> per_platter(plan.num_platters);
  for (const auto& extent : plan.extents) {
    per_platter[extent.platter_index].push_back(
        static_cast<size_t>(extent.file_id));
  }

  for (const auto& staged_indices : per_platter) {
    std::vector<FileData> files;
    for (size_t idx : staged_indices) {
      files.push_back(FileData{
          .file_id = next_file_id_++,
          .name = staged_[idx].name,
          .bytes = staged_[idx].data,
      });
    }
    const uint64_t platter_id = next_platter_id_++;
    StoredPlatter stored{writer_.WritePlatter(platter_id, files, rng_), 0, 0,
                         false, false};

    const auto verdict = verifier_.Verify(stored.written.platter, rng_);
    report.sectors_verified += verdict.sectors_total;
    report.observed_sector_failure_rate += verdict.sector_failure_rate();
    if (!verdict.durable) {
      for (size_t idx : staged_indices) {
        still_staged.push_back(std::move(staged_[idx]));
        ++report.files_kept_in_staging;
      }
      continue;  // platter discarded (recycled as blank media)
    }
    ++report.platters_written;
    report.files_committed += files.size();
    platters_.emplace(platter_id, std::move(stored));
    accepted_ids.push_back(platter_id);
    newly_accepted.push_back(platter_id);
  }

  // Complete platter-sets: pad with blank platters if needed, then encode and
  // write the cross-platter redundancy.
  while (!accepted_ids.empty()) {
    std::vector<uint64_t> set_members;
    for (uint64_t id : accepted_ids) {
      set_members.push_back(id);
      if (set_members.size() == static_cast<size_t>(config_.platter_set.info)) {
        break;
      }
    }
    accepted_ids.erase(accepted_ids.begin(),
                       accepted_ids.begin() + static_cast<long>(set_members.size()));
    while (set_members.size() < static_cast<size_t>(config_.platter_set.info)) {
      const uint64_t filler_id = next_platter_id_++;
      platters_.emplace(filler_id,
                        StoredPlatter{writer_.WritePlatter(filler_id, {}, rng_), 0,
                                      0, false, false});
      set_members.push_back(filler_id);
    }

    const uint64_t set_id = next_set_id_++;
    accepted.clear();
    for (size_t i = 0; i < set_members.size(); ++i) {
      auto& stored = platters_.at(set_members[i]);
      stored.set_id = set_id;
      stored.index_in_set = i;
      accepted.push_back(&stored.written);
    }
    auto redundancy =
        set_codec_.EncodeRedundancyPlatters(accepted, next_platter_id_, rng_);
    next_platter_id_ += redundancy.size();
    sets_[set_id] = set_members;
    for (size_t r = 0; r < redundancy.size(); ++r) {
      const uint64_t rid = redundancy[r].platter.platter_id();
      StoredPlatter stored{std::move(redundancy[r]), set_id,
                           static_cast<size_t>(config_.platter_set.info) + r, true,
                           false};
      platters_.emplace(rid, std::move(stored));
      sets_[set_id].push_back(rid);
      ++report.redundancy_platters_written;
    }
  }

  // Commit metadata for the platters accepted this flush, releasing the staged
  // copies of their files.
  for (uint64_t id : newly_accepted) {
    const auto& stored = platters_.at(id);
    for (const auto& entry : stored.written.platter.header().files) {
      metadata_.RecordWrite(entry.name, id, entry.start_sector_index,
                            entry.size_bytes, /*encryption_key=*/entry.file_id);
    }
  }
  if (report.platters_written > 0) {
    report.observed_sector_failure_rate /=
        static_cast<double>(report.platters_written);
  }
  staged_ = std::move(still_staged);
  return report;
}

std::optional<std::vector<uint8_t>> SilicaService::Get(const std::string& name) {
  const auto version = metadata_.Lookup(name);
  if (!version) {
    return std::nullopt;
  }
  const auto it = platters_.find(version->platter_id);
  if (it == platters_.end()) {
    return std::nullopt;
  }
  if (it->second.unavailable) {
    RecoveredTracks recovered;
    return ReadViaRecovery(*version, recovered);
  }
  PlatterFileEntry entry;
  entry.name = name;
  entry.start_sector_index = version->start_sector_index;
  entry.size_bytes = version->bytes;
  return reader_.ReadFile(it->second.written.platter, entry, rng_);
}

SilicaService::BatchReadResult SilicaService::BatchGet(
    const std::vector<std::string>& names) {
  BatchReadResult result;
  result.files.resize(names.size());

  // Group the requests by the platter that holds each name, platters in
  // first-appearance order. Unknown names resolve to nullopt without a mount.
  std::unordered_map<uint64_t, std::vector<size_t>> by_platter;
  std::vector<uint64_t> platter_order;
  std::vector<std::optional<FileVersion>> versions(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    versions[i] = metadata_.Lookup(names[i]);
    if (!versions[i]) {
      continue;
    }
    auto [it, inserted] = by_platter.try_emplace(versions[i]->platter_id);
    if (inserted) {
      platter_order.push_back(versions[i]->platter_id);
    }
    it->second.push_back(i);
  }

  for (uint64_t platter_id : platter_order) {
    const auto it = platters_.find(platter_id);
    if (it == platters_.end()) {
      continue;  // stale metadata; every read of it stays nullopt
    }
    ++result.platter_mounts;
    // A name repeated in the batch is read once; its later requests copy the
    // first one's result.
    const std::vector<size_t>& requests = by_platter.at(platter_id);
    std::unordered_map<std::string_view, size_t> first_request;
    std::vector<size_t> distinct;
    for (size_t i : requests) {
      if (first_request.try_emplace(names[i], i).second) {
        distinct.push_back(i);
      }
    }
    if (it->second.unavailable) {
      // Every track of the unavailable platter is rebuilt at most once.
      RecoveredTracks recovered;
      for (size_t i : distinct) {
        result.files[i] = ReadViaRecovery(*versions[i], recovered);
      }
      result.recovery_reads += requests.size();
    } else {
      std::vector<PlatterFileEntry> entries;
      entries.reserve(distinct.size());
      for (size_t i : distinct) {
        entries.push_back(PlatterFileEntry{.name = names[i],
                                           .start_sector_index =
                                               versions[i]->start_sector_index,
                                           .size_bytes = versions[i]->bytes});
      }
      auto files = reader_.ReadFiles(it->second.written.platter, entries, rng_);
      for (size_t k = 0; k < distinct.size(); ++k) {
        result.files[distinct[k]] = std::move(files[k]);
      }
    }
    for (size_t i : requests) {
      const size_t first = first_request.at(names[i]);
      if (first != i) {
        result.files[i] = result.files[first];
      }
    }
  }
  if (batch_mount_counter_ != nullptr) {
    batch_mount_counter_->Increment(static_cast<double>(result.platter_mounts));
    batch_read_counter_->Increment(static_cast<double>(names.size()));
  }
  return result;
}

bool SilicaService::Delete(const std::string& name) {
  const bool shredded = metadata_.Delete(name);
  if (shredded && shredded_counter_ != nullptr) {
    shredded_counter_->Increment();
  }
  return shredded;
}

void SilicaService::SetTelemetry(Telemetry* telemetry) {
  plane_.SetTelemetry(telemetry);
  if (telemetry == nullptr) {
    shredded_counter_ = nullptr;
    batch_mount_counter_ = nullptr;
    batch_read_counter_ = nullptr;
    return;
  }
  shredded_counter_ =
      &telemetry->metrics.GetCounter("service_files_shredded_total");
  batch_mount_counter_ =
      &telemetry->metrics.GetCounter("service_batch_platter_mounts_total");
  batch_read_counter_ =
      &telemetry->metrics.GetCounter("service_batch_reads_total");
}

SilicaService::SetPeers SilicaService::GatherSetPeers(
    const std::vector<uint64_t>& members, uint64_t self) const {
  SetPeers peers;
  for (uint64_t id : members) {
    const auto& member = platters_.at(id);
    if (id == self || member.unavailable) {
      continue;
    }
    if (member.is_redundancy) {
      peers.redundancy.push_back(&member.written.platter);
      peers.redundancy_indices.push_back(member.index_in_set -
                                         static_cast<size_t>(config_.platter_set.info));
    } else {
      peers.info.push_back(&member.written.platter);
      peers.info_indices.push_back(member.index_in_set);
    }
  }
  return peers;
}

std::optional<std::vector<uint8_t>> SilicaService::ReadViaRecovery(
    const FileVersion& version, RecoveredTracks& recovered) {
  const auto& stored = platters_.at(version.platter_id);
  const auto set_it = sets_.find(stored.set_id);
  if (set_it == sets_.end()) {
    return std::nullopt;  // platter predates any completed set
  }
  const SetPeers peers = GatherSetPeers(set_it->second, version.platter_id);

  // Recover the tracks the file spans, then slice out its payload bytes.
  const auto& g = plane_.geometry();
  const size_t payload_bytes = plane_.sector_payload_bytes();
  const uint64_t need = std::max<uint64_t>(
      1, (version.bytes + payload_bytes - 1) / payload_bytes);

  std::vector<uint8_t> out;
  out.reserve(version.bytes);
  for (uint64_t s = 0; s < need; ++s) {
    const SectorAddress addr =
        SerpentineSectorAddress(g, version.start_sector_index + s);
    auto [track, inserted] = recovered.try_emplace(addr.track);
    if (inserted) {
      track->second = set_codec_.RecoverTrack(
          peers.info, peers.info_indices, peers.redundancy, peers.redundancy_indices,
          stored.index_in_set, addr.track, rng_);
    }
    if (!track->second) {
      return std::nullopt;
    }
    const auto& payload = (*track->second)[static_cast<size_t>(addr.sector)];
    const size_t want = static_cast<size_t>(std::min<uint64_t>(
        payload_bytes, version.bytes - s * payload_bytes));
    out.insert(out.end(), payload.begin(), payload.begin() + static_cast<long>(want));
  }
  return out;
}

bool SilicaService::MarkUnavailable(uint64_t platter_id) {
  const auto it = platters_.find(platter_id);
  if (it == platters_.end()) {
    return false;
  }
  it->second.unavailable = true;
  return true;
}

void SilicaService::MarkAvailable(uint64_t platter_id) {
  const auto it = platters_.find(platter_id);
  if (it != platters_.end()) {
    it->second.unavailable = false;
  }
}

std::optional<uint64_t> SilicaService::AgePlatter(uint64_t platter_id,
                                                 double years) {
  const auto it = platters_.find(platter_id);
  if (it == platters_.end()) {
    return std::nullopt;
  }
  MediaAger ager(config_.aging, config_.seed);
  return ager.Age(it->second.written.platter, years);
}

std::optional<SilicaService::ScrubResult> SilicaService::ScrubPlatter(
    uint64_t platter_id) {
  const auto it = platters_.find(platter_id);
  if (it == platters_.end()) {
    return std::nullopt;
  }
  StoredPlatter& stored = it->second;

  ScrubResult result;
  result.detection = verifier_.Verify(stored.written.platter, rng_);
  if (result.detection.sector_erasures == 0) {
    return result;  // healthy glass; nothing to escalate
  }

  // Redundancy platters hold no customer payloads, so they repair on-platter
  // only.
  const PlatterSetCodec* codec = nullptr;
  SetPeers peers;
  const auto set_it = sets_.find(stored.set_id);
  if (!stored.is_redundancy && set_it != sets_.end()) {
    codec = &set_codec_;
    peers = GatherSetPeers(set_it->second, platter_id);
  }

  PlatterRepairer repairer(plane_);
  PlatterRepairOutcome outcome =
      repairer.Repair(stored.written.platter, codec, peers.info, peers.info_indices,
                      peers.redundancy, peers.redundancy_indices, stored.index_in_set,
                      rng_);
  result.ledger = outcome.ledger;
  result.data_lost = !outcome.data_intact;
  if (outcome.rewritten) {
    stored.written = std::move(*outcome.rewritten);
    result.replaced = true;
  }
  return result;
}

MetadataService SilicaService::ScanAndRebuildIndex() const {
  std::vector<PlatterHeader> headers;
  for (const auto& [id, stored] : platters_) {
    if (!stored.unavailable && !stored.is_redundancy) {
      headers.push_back(stored.written.platter.header());
    }
  }
  return MetadataService::RebuildFromHeaders(headers);
}

}  // namespace silica
