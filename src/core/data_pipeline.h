// The end-to-end data plane: write pipeline, verification, read pipeline, and the
// cross-platter platter-set codec (Sections 3, 5, 6).
//
// Write path:  files -> packed sector payloads (serpentine order) -> within-track NC
// redundancy sectors -> large-group NC redundancy tracks -> per-sector LDPC + CRC ->
// voxel symbols -> write channel -> glass platter (+ self-descriptive header).
//
// Read path:   read drive images the track -> soft demap to bit LLRs -> LDPC;
// sectors that fail LDPC/CRC become erasures recovered by within-track NC, then by
// the large group across tracks. Platter unavailability is handled by the
// platter-set codec (any 16 of 19 platters reconstruct a missing platter's track).
//
// Verification: a freshly written platter is fully read with the *read* technology
// before the staged data is deleted; per-sector outcomes decide durability.
#ifndef SILICA_CORE_DATA_PIPELINE_H_
#define SILICA_CORE_DATA_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "channel/channel_model.h"
#include "channel/sector_codec.h"
#include "channel/soft_decoder.h"
#include "common/rng.h"
#include "core/layout.h"
#include "ecc/large_group_codec.h"
#include "ecc/network_coding.h"
#include "media/platter.h"

namespace silica {

class Counter;
class Gauge;
class ThreadPool;
struct Telemetry;

struct DataPlaneConfig {
  MediaGeometry geometry = MediaGeometry::DataPlaneScale();
  WriteChannelParams write_channel;
  ReadChannelParams read_channel;
  SoftDecoderParams decoder;
  uint64_t code_seed = 7;
};

struct FileData {
  uint64_t file_id = 0;
  std::string name;
  std::vector<uint8_t> bytes;
};

// Shared codecs and channel models; build once, use for many platters.
class DataPlane {
 public:
  explicit DataPlane(DataPlaneConfig config);

  const MediaGeometry& geometry() const { return config_.geometry; }
  const SectorCodec& sector_codec() const { return sector_codec_; }
  const Constellation& constellation() const { return constellation_; }
  const WriteChannel& write_channel() const { return write_channel_; }
  const ReadChannel& read_channel() const { return read_channel_; }
  const SoftDecoder& soft_decoder() const { return soft_decoder_; }
  const NetworkCodec& track_codec() const { return track_codec_; }
  const NetworkCodec& large_group_codec() const { return large_codec_; }

  size_t sector_payload_bytes() const { return sector_codec_.payload_bytes(); }

  // Publishes decode-stack stage counters (sectors read, LDPC failures, NC
  // recoveries per layer, verifications) into the registry; nullptr detaches. The
  // counters are shared by every reader/verifier built on this plane.
  void SetTelemetry(Telemetry* telemetry);
  struct StageCounters {
    Counter* sectors_read = nullptr;  // sectors decoded, not sectors imaged
    Counter* ldpc_failures = nullptr;
    Counter* track_nc_recoveries = nullptr;
    Counter* large_nc_recoveries = nullptr;
    // Cross-platter 16+3 recoveries (sectors rebuilt by PlatterSetCodec) and
    // the extra sector decodes the recovery layers themselves issue (gathering
    // large-group peers / set peers). Kept separate from sectors_read so a
    // platter's nominal read count stays comparable across recovery depths.
    Counter* platter_set_recoveries = nullptr;
    Counter* recovery_reads = nullptr;
    Counter* platters_verified = nullptr;
    Gauge* decode_wall_seconds = nullptr;   // wall time of the last track decode
    Gauge* sectors_per_second = nullptr;    // throughput of the last track decode
  };
  const StageCounters& stage_counters() const { return stage_counters_; }

  // Attaches a worker pool; per-sector encode/decode work fans out across it.
  // nullptr (the default) runs the same loops inline. Every sector draws its
  // noise from an Rng::Fork keyed by its address, and each write or track read
  // advances the caller's stream exactly once, so glass, payloads and stats are
  // identical with no pool and with any worker count.
  void SetThreadPool(ThreadPool* pool) { thread_pool_ = pool; }
  ThreadPool* thread_pool() const { return thread_pool_; }

 private:
  StageCounters stage_counters_;
  ThreadPool* thread_pool_ = nullptr;
  DataPlaneConfig config_;
  Constellation constellation_;
  SectorCodec sector_codec_;
  WriteChannel write_channel_;
  ReadChannel read_channel_;
  SoftDecoder soft_decoder_;
  NetworkCodec track_codec_;  // within-track: I_t + R_t sectors
  NetworkCodec large_codec_;  // across tracks: I_l + R_l tracks per sector position
};

// A written platter plus the pre-channel payload grid the write pipeline produced
// (the staged source data; kept until verification passes, and used to build the
// cross-platter redundancy platters of the set).
struct WrittenPlatter {
  GlassPlatter platter;
  // payloads[track][sector] — every sector payload, including redundancy sectors.
  std::vector<std::vector<std::vector<uint8_t>>> payloads;
};

// kMissingVoxel (the failed/decayed voxel sentinel) lives in media/platter.h,
// shared with the media-aging model.

// Writes platters through the write channel.
class PlatterWriter {
 public:
  explicit PlatterWriter(const DataPlane& plane) : plane_(&plane) {}

  // Packs the files in order into one platter (throws if they do not fit),
  // computes all on-platter redundancy, writes every sector, seals the header.
  // `rng` drives write-channel noise.
  WrittenPlatter WritePlatter(uint64_t platter_id, const std::vector<FileData>& files,
                              Rng& rng) const;

 private:
  const DataPlane* plane_;
};

struct ReadStats {
  uint64_t sectors_read = 0;           // sectors decoded (LDPC attempted)
  uint64_t ldpc_failures = 0;          // sectors that became erasures
  uint64_t track_nc_recoveries = 0;    // sectors recovered by within-track NC
  uint64_t large_nc_recoveries = 0;    // sectors recovered by the large group
  uint64_t platter_set_recoveries = 0; // sectors rebuilt from the platter set
  uint64_t ldpc_retry_recoveries = 0;  // sectors recovered by re-imaging (repair)
  uint64_t recovery_reads = 0;         // extra sector decodes issued by recovery
  bool used_large_group = false;
};

// Reads platters through the read channel + decode stack, applying the recovery
// hierarchy.
class PlatterReader {
 public:
  explicit PlatterReader(const DataPlane& plane) : plane_(&plane) {}

  // Reads a file listed in the platter header. Only the file's own sectors are
  // imaged and decoded unless one of them fails. Returns the bytes a full
  // ReadTrackPayloads over the same tracks would, and advances `rng` exactly as
  // those reads would: once per touched track. Returns nullopt only if the data
  // is unrecoverable by all on-platter layers. Throws std::out_of_range if the
  // entry extends past the platter's information sectors.
  std::optional<std::vector<uint8_t>> ReadFile(const GlassPlatter& platter,
                                               const PlatterFileEntry& entry,
                                               Rng& rng,
                                               ReadStats* stats = nullptr) const;

  // Decodes every information-sector payload of a track, recovering erasures with
  // within-track NC. Entries that stay unrecoverable are nullopt.
  std::vector<std::optional<std::vector<uint8_t>>> ReadTrackPayloads(
      const GlassPlatter& platter, int track, Rng& rng,
      ReadStats* stats = nullptr) const;

 private:
  // The one track read: decodes the sectors `wanted` marks (nonzero). If a
  // wanted information sector fails, the rest of the track is decoded and the
  // recovery ladder runs: up to `retries` re-images of each failed information
  // sector, then within-track NC, then the large group. Otherwise unwanted
  // entries stay nullopt. Advances `rng` exactly once.
  std::vector<std::optional<std::vector<uint8_t>>> ReadTrack(
      const GlassPlatter& platter, int track, std::span<const uint8_t> wanted,
      Rng& rng, ReadStats* stats, int retries = 0) const;

  // Images one sector through the read channel, then soft demap + LDPC +
  // checksum. `rng` is the sector's own noise stream.
  std::optional<std::vector<uint8_t>> DecodeSector(const GlassPlatter& platter,
                                                   SectorAddress address,
                                                   Rng& rng) const;

  friend class PlatterRepairer;
  const DataPlane* plane_;
};

struct VerifyReport {
  uint64_t sectors_total = 0;
  uint64_t sector_erasures = 0;        // LDPC/CRC failures on first read
  uint64_t track_nc_recoveries = 0;    // erasures fixed by within-track NC
  uint64_t large_nc_recoveries = 0;    // erasures fixed by the large group
  uint64_t unrecoverable_sectors = 0;  // beyond all on-platter NC layers
  bool durable = false;                // platter acceptable; staged data deletable
  double sector_failure_rate() const {
    return sectors_total
               ? static_cast<double>(sector_erasures) / static_cast<double>(sectors_total)
               : 0.0;
  }
  // Counter conservation: every erasure is either recovered by exactly one NC
  // layer or counted unrecoverable. Verify() asserts this in debug builds.
  bool Conserves() const {
    return sector_erasures ==
           track_nc_recoveries + large_nc_recoveries + unrecoverable_sectors;
  }
};

// Full-platter verification with the read technology (Section 3.1).
class PlatterVerifier {
 public:
  explicit PlatterVerifier(const DataPlane& plane) : plane_(&plane) {}

  VerifyReport Verify(const GlassPlatter& platter, Rng& rng) const;

 private:
  const DataPlane* plane_;
};

// Cross-platter network coding over a platter-set (GF(2^16) groups spanning all
// sectors of one track per platter — "significantly stronger than simply grouping
// matching sectors").
class PlatterSetCodec {
 public:
  PlatterSetCodec(const DataPlane& plane, PlatterSetConfig set);

  // Builds the R_p redundancy platters for a set of I_p written information
  // platters. Redundancy platters get their own channel write (and can be
  // verified/read like any platter).
  std::vector<WrittenPlatter> EncodeRedundancyPlatters(
      const std::vector<const WrittenPlatter*>& info_platters, uint64_t first_id,
      Rng& rng) const;

  // Reconstructs the information-sector payloads of `track` on the missing platter
  // (identified by its index in the set, 0-based among information platters) from
  // the other platters. Requires at least I_p readable platters among the rest.
  // Redundancy platters are read in the given order and only until they cover
  // the unknown shards; one whose track is unreadable is skipped. `stats`, when
  // given, accumulates the peer reads this recovery issued plus
  // platter_set_recoveries for the sectors rebuilt (so callers outside
  // PlatterVerifier still feed the plane's stage counters). Throws
  // std::invalid_argument if a platter vector and its index vector differ in
  // size, or if an index is out of range for the set.
  std::optional<std::vector<std::vector<uint8_t>>> RecoverTrack(
      const std::vector<const GlassPlatter*>& available_info,
      const std::vector<size_t>& available_info_indices,
      const std::vector<const GlassPlatter*>& available_redundancy,
      const std::vector<size_t>& available_redundancy_indices,
      size_t missing_info_index, int track, Rng& rng,
      ReadStats* stats = nullptr) const;

  const LargeGroupCodec& group_codec() const { return codec_; }

 private:
  // Payload of every sector (info + within-track redundancy) of a track, decoded.
  std::optional<std::vector<std::vector<uint8_t>>> AllTrackPayloads(
      const GlassPlatter& platter, int track, Rng& rng, ReadStats* stats) const;

  const DataPlane* plane_;
  PlatterSetConfig set_;
  LargeGroupCodec codec_;
};

}  // namespace silica

#endif  // SILICA_CORE_DATA_PIPELINE_H_
