// End-to-end per-sector codec: payload bytes <-> voxel symbols, through the CRC and
// LDPC layers. This is the unit the decode stack operates on: one sector is one read
// drive image, one LDPC codeword, and one checksum domain (Sections 3.2 and 5).
#ifndef SILICA_CHANNEL_SECTOR_CODEC_H_
#define SILICA_CHANNEL_SECTOR_CODEC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ecc/ldpc.h"
#include "media/geometry.h"

namespace silica {

class SectorCodec {
 public:
  // Building the LDPC code is the expensive part (seconds for large blocks); build
  // one codec per geometry and share it. The same seed always yields the same code,
  // which is how write drives and the decode stack agree on the code without
  // exchanging matrices.
  explicit SectorCodec(const MediaGeometry& geometry, uint64_t code_seed = 7);

  // Usable bytes per sector (LDPC information bits minus the 32-bit payload CRC).
  size_t payload_bytes() const { return payload_bytes_; }
  const LdpcCode& ldpc() const { return ldpc_; }
  const MediaGeometry& geometry() const { return geometry_; }

  // payload must be exactly payload_bytes() long. Returns the voxel symbols to write.
  std::vector<uint16_t> EncodeSector(std::span<const uint8_t> payload) const;

  // Decodes from per-bit LLRs (length = raw bits per sector). Returns the payload on
  // success; nullopt if the LDPC decode fails to converge or the checksum mismatches
  // (the sector then becomes an erasure for the network-coding layers).
  std::optional<std::vector<uint8_t>> DecodeFromLlrs(std::span<const float> llrs) const;

 private:
  MediaGeometry geometry_;
  LdpcCode ldpc_;
  size_t payload_bytes_;
};

}  // namespace silica

#endif  // SILICA_CHANNEL_SECTOR_CODEC_H_
