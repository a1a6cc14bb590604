#include "channel/sector_codec.h"

#include <stdexcept>

#include "common/crc.h"
#include "ecc/bits.h"

namespace silica {

SectorCodec::SectorCodec(const MediaGeometry& geometry, uint64_t code_seed)
    : geometry_(geometry),
      ldpc_(LdpcCode::Build({
          .block_bits = static_cast<size_t>(geometry.raw_bits_per_sector()),
          .rate = geometry.ldpc_rate,
          .column_weight = 3,
          .seed = code_seed,
      })) {
  if (ldpc_.k() < 40) {
    throw std::invalid_argument("SectorCodec: sector too small for payload + CRC");
  }
  payload_bytes_ = (ldpc_.k() - 32) / 8;
}

std::vector<uint16_t> SectorCodec::EncodeSector(std::span<const uint8_t> payload) const {
  if (payload.size() != payload_bytes_) {
    throw std::invalid_argument("SectorCodec::EncodeSector: wrong payload size");
  }
  const uint32_t crc = Crc32c(payload);

  // Info stream (LSB-first): payload bytes, then the 32 CRC bits, then zero
  // padding up to k — packed straight into 64-bit words, no byte-per-bit blowup.
  std::vector<uint64_t> info_words(ldpc_.info_words(), 0);
  for (size_t i = 0; i < payload.size(); ++i) {
    info_words[i / 8] |= static_cast<uint64_t>(payload[i]) << ((i % 8) * 8);
  }
  const size_t crc_bit = payload.size() * 8;
  info_words[crc_bit / 64] |= static_cast<uint64_t>(crc) << (crc_bit % 64);
  if (crc_bit % 64 > 32 && crc_bit / 64 + 1 < info_words.size()) {
    info_words[crc_bit / 64 + 1] |= static_cast<uint64_t>(crc) >> (64 - crc_bit % 64);
  }

  const auto codeword = ldpc_.EncodePacked(info_words);
  return PackedBitsToSymbols(codeword, ldpc_.n(), geometry_.bits_per_voxel);
}

std::optional<std::vector<uint8_t>> SectorCodec::DecodeFromLlrs(
    std::span<const float> llrs) const {
  const auto result = ldpc_.Decode(llrs);
  if (!result.ok) {
    return std::nullopt;
  }
  const auto info_bits = ldpc_.ExtractInfo(result.codeword);

  std::vector<uint8_t> payload = BitsToBytes(
      std::span<const uint8_t>(info_bits.data(), payload_bytes_ * 8));
  uint32_t crc = 0;
  for (int b = 0; b < 32; ++b) {
    if (info_bits[payload_bytes_ * 8 + static_cast<size_t>(b)]) {
      crc |= 1u << b;
    }
  }
  if (Crc32c(payload) != crc) {
    return std::nullopt;  // converged to a wrong codeword; treat as erasure
  }
  return payload;
}

}  // namespace silica
