// SilicaService: the archival service facade used by the examples.
//
// It composes the pieces the way the paper's service does: incoming files are
// staged, packed onto platters (files that belong together stay together), written
// through the write channel, *verified with the read technology before the staged
// copy is released* (Section 3.1), organized into platter-sets with cross-platter
// redundancy, and indexed in the metadata service. Reads resolve metadata, read the
// platter through the decode stack, and fall back to cross-platter recovery when a
// platter is unavailable.
#ifndef SILICA_CORE_SILICA_SERVICE_H_
#define SILICA_CORE_SILICA_SERVICE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.h"
#include "core/data_pipeline.h"
#include "core/layout.h"
#include "core/metadata.h"
#include "core/platter_repair.h"
#include "ecc/repair.h"
#include "faults/media_aging.h"

namespace silica {

class Counter;
struct Telemetry;

struct ServiceConfig {
  DataPlaneConfig data_plane;
  PlatterSetConfig platter_set{4, 2};  // small sets keep examples fast
  uint64_t seed = 1;
  // Worker threads for per-sector encode/decode. Higher values fan sector work
  // across an owned ThreadPool; output is the same at any count.
  int threads = 1;
  // Physical media-decay law used by AgePlatter (per platter-year).
  MediaAgingParams aging;
  // SIMD dispatch tier for the GF(256)/GF(2^16)/LDPC data-plane kernels:
  // "auto" (best the CPU supports), "scalar", "avx2", or "neon". Applied
  // process-wide at service construction. Every tier is bit-identical to
  // scalar, so this only affects throughput — never output bytes.
  std::string simd = "auto";
};

class SilicaService {
 public:
  // Validates `config` up front: threads must be >= 1 and the platter-set shape
  // must be sane (info > 0, redundancy >= 0). Throws std::invalid_argument with
  // a specific message instead of producing undefined behavior downstream.
  explicit SilicaService(ServiceConfig config);

  // Stages a file for writing. Data is buffered until Flush().
  void Put(const std::string& name, uint64_t account, std::vector<uint8_t> data);

  struct FlushReport {
    uint64_t platters_written = 0;
    uint64_t redundancy_platters_written = 0;
    uint64_t files_committed = 0;
    uint64_t files_kept_in_staging = 0;  // verification failed; will be rewritten
    uint64_t sectors_verified = 0;
    double observed_sector_failure_rate = 0.0;
  };

  // Drains staging: packs, writes, verifies, encodes platter-set redundancy, and
  // commits metadata. Files on platters that fail verification stay staged.
  FlushReport Flush();

  // Reads the latest version of a file back through the full decode stack.
  std::optional<std::vector<uint8_t>> Get(const std::string& name);

  struct BatchReadResult {
    // One entry per requested name, in request order; nullopt when the name is
    // unknown/deleted or the data is unrecoverable.
    std::vector<std::optional<std::vector<uint8_t>>> files;
    uint64_t platter_mounts = 0;   // distinct platters visited by the batch
    uint64_t recovery_reads = 0;   // reads served via cross-platter recovery
  };

  // Batched read entry point for the front-end: groups the names by platter so
  // one mount serves every file co-located on it (platters are visited in
  // first-appearance order; results come back in request order). The whole
  // batch costs `platter_mounts` mounts, against `names.size()` for the same
  // reads issued through Get() one at a time. A mount's files are read as one
  // read pass (PlatterReader::ReadFiles); a name repeated in the batch is read
  // once; and a track of an unavailable platter is rebuilt from its set once,
  // however many of the batch's files it holds.
  BatchReadResult BatchGet(const std::vector<std::string>& names);

  // Logical delete by crypto-shredding. Bumps service_files_shredded_total when
  // telemetry is attached; the voxels stay in the glass but are unreadable, and
  // scrub/repair of the platter must not resurrect the name.
  bool Delete(const std::string& name);

  // Fails a platter (e.g. its blast zone is blocked); reads will use cross-platter
  // recovery. Returns false for unknown ids.
  bool MarkUnavailable(uint64_t platter_id);
  void MarkAvailable(uint64_t platter_id);

  // Applies `years` of physical decay (voxel-noise aging + latent sector
  // errors) to a stored platter in place. Deterministic per (seed, platter id).
  // Returns the number of sectors struck, or nullopt for unknown ids.
  std::optional<uint64_t> AgePlatter(uint64_t platter_id, double years);

  struct ScrubResult {
    VerifyReport detection;  // the scrub's full verification read
    RepairLedger ledger;     // repair-escalation outcome (information sectors)
    bool replaced = false;   // platter rewritten onto fresh glass and swapped in
    bool data_lost = false;  // some payload unrecoverable even via the set
  };

  // Background-scrub entry point: verification-reads the platter with the read
  // technology; when damage is detected, runs the repair ladder (LDPC retry ->
  // within-track NC -> large group -> 16+3 platter set) and swaps the rewritten
  // platter in when every payload is recovered. Redundancy platters repair with
  // their on-platter tiers only. Returns nullopt for unknown ids.
  std::optional<ScrubResult> ScrubPlatter(uint64_t platter_id);

  const MetadataService& metadata() const { return metadata_; }
  const DataPlane& data_plane() const { return plane_; }
  uint64_t platters_in_library() const { return platters_.size(); }

  // Publishes service-level counters (crypto-shredded files, batched-read
  // mounts) and forwards to the data plane's stage counters; nullptr detaches.
  void SetTelemetry(Telemetry* telemetry);

  // Scans every platter header and rebuilds a metadata index (disaster recovery).
  MetadataService ScanAndRebuildIndex() const;

 private:
  struct StoredPlatter {
    WrittenPlatter written;
    uint64_t set_id = 0;
    size_t index_in_set = 0;  // information index, or set_.info + r for redundancy
    bool is_redundancy = false;
    bool unavailable = false;
  };

  // The available members of a set other than `self`, split into information
  // and redundancy platters with their in-set indices, as RecoverTrack takes them.
  struct SetPeers {
    std::vector<const GlassPlatter*> info;
    std::vector<size_t> info_indices;
    std::vector<const GlassPlatter*> redundancy;
    std::vector<size_t> redundancy_indices;
  };
  SetPeers GatherSetPeers(const std::vector<uint64_t>& members, uint64_t self) const;

  // Tracks of one unavailable platter rebuilt from its set, by track; nullopt
  // records a rebuild that failed.
  using RecoveredTracks =
      std::unordered_map<int, std::optional<std::vector<std::vector<uint8_t>>>>;
  // Rebuilds the tracks a file spans that `recovered` lacks, adds them to it,
  // then slices out the file's payload bytes.
  std::optional<std::vector<uint8_t>> ReadViaRecovery(const FileVersion& version,
                                                      RecoveredTracks& recovered);

  ServiceConfig config_;
  std::unique_ptr<ThreadPool> pool_;  // owned; attached to plane_ when threads > 1
  DataPlane plane_;
  PlatterWriter writer_;
  PlatterReader reader_;
  PlatterVerifier verifier_;
  PlatterSetCodec set_codec_;
  MetadataService metadata_;
  Rng rng_;

  struct PendingFile {
    std::string name;
    uint64_t account = 0;
    std::vector<uint8_t> data;
  };
  Counter* shredded_counter_ = nullptr;
  Counter* batch_mount_counter_ = nullptr;
  Counter* batch_read_counter_ = nullptr;

  std::vector<PendingFile> staged_;
  uint64_t next_file_id_ = 1;
  uint64_t next_platter_id_ = 1;
  uint64_t next_set_id_ = 0;
  std::unordered_map<uint64_t, StoredPlatter> platters_;
  // set id -> platter ids (information platters first).
  std::unordered_map<uint64_t, std::vector<uint64_t>> sets_;
};

}  // namespace silica

#endif  // SILICA_CORE_SILICA_SERVICE_H_
