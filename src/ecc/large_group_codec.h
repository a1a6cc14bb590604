// Large network groups over GF(2^16) with reduced-system recovery.
//
// A group has I information shards and R redundancy shards (I + R <= 65536), with
// Cauchy coefficients so any I shards determine the rest. Unlike the GF(2^8) codec,
// recovery here solves only for the missing shards: with m <= R missing information
// shards, the known shards are folded into the syndromes and an m x m Cauchy
// subsystem is inverted — O(m^3 + R*I*len) instead of O(I^3), which is what makes
// groups of thousands of sectors practical (Section 5's cross-platter coding).
//
// Shards are 16-bit words; byte payloads must have even length.
#ifndef SILICA_ECC_LARGE_GROUP_CODEC_H_
#define SILICA_ECC_LARGE_GROUP_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

namespace silica {

class ThreadPool;

class LargeGroupCodec {
 public:
  LargeGroupCodec(size_t info, size_t redundancy);

  size_t info() const { return info_; }
  size_t redundancy() const { return redundancy_; }

  // redundancy[r] += coeff(r, info_index) * shard, for all r. Streaming encode:
  // call once per information shard over zero-initialized redundancy buffers.
  void EncodeAccumulate(size_t info_index, std::span<const uint16_t> shard,
                        std::span<const std::span<uint16_t>> redundancy) const;

  // Recovers missing information shards.
  //
  // `info` holds all I information shards (missing entries arbitrary);
  // `missing_info` lists their indices (size m <= number of available redundancy
  // shards). `redundancy_indices` / `redundancy` supply at least m surviving
  // redundancy shards. Recovered shards are written in place into `info`.
  // Returns false if not enough redundancy survives.
  bool RecoverInfo(std::span<const std::span<uint16_t>> info,
                   std::span<const size_t> missing_info,
                   std::span<const size_t> redundancy_indices,
                   std::span<const std::span<const uint16_t>> redundancy,
                   ThreadPool* pool = nullptr) const;

  uint16_t Coefficient(size_t redundancy_row, size_t info_col) const;

 private:
  size_t info_;
  size_t redundancy_;
};

}  // namespace silica

#endif  // SILICA_ECC_LARGE_GROUP_CODEC_H_
