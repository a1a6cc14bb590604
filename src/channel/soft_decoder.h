// Soft decoder: measurements -> per-voxel symbol posteriors -> per-bit LLRs.
//
// In production Silica this is a fully-convolutional U-Net classifying every voxel of
// a sector at once (Section 3.2). Here it is an idealized maximum-a-posteriori decoder
// over the channel model, which produces the same interface the ML model does: a
// probability distribution over the encoded symbols for every voxel. A temperature
// knob models decoder miscalibration, and the decoder is deliberately ISI-unaware
// (it assumes the marginal Gaussian channel), so its posteriors are imperfect exactly
// where a learned model must work hardest.
#ifndef SILICA_CHANNEL_SOFT_DECODER_H_
#define SILICA_CHANNEL_SOFT_DECODER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "channel/channel_model.h"
#include "channel/constellation.h"
#include "ecc/simd/gf256_kernels.h"

namespace silica {

// Posterior over the symbol alphabet for every voxel of a sector.
struct SectorPosteriors {
  int num_symbols = 0;
  std::vector<float> probs;  // voxel-major: probs[v * num_symbols + s]

  size_t num_voxels() const {
    return num_symbols > 0 ? probs.size() / static_cast<size_t>(num_symbols) : 0;
  }
  std::span<const float> Voxel(size_t v) const {
    return {probs.data() + v * static_cast<size_t>(num_symbols),
            static_cast<size_t>(num_symbols)};
  }
};

struct SoftDecoderParams {
  double miss_prior = 1e-4;   // prior probability a voxel is missing
  double temperature = 1.0;   // >1 flattens posteriors (miscalibrated model)
};

class SoftDecoder {
 public:
  // Throws std::invalid_argument, naming the field, if either channel sigma or
  // the temperature is non-finite, <= 0 or too small for float demapping, or
  // if miss_prior is outside (0, 1): any of those would turn every LLR into
  // NaN or infinity.
  SoftDecoder(const Constellation& constellation, ReadChannelParams channel,
              SoftDecoderParams params = {});

  // Classifies every voxel of a sector (double precision; the modelled U-Net
  // interface).
  SectorPosteriors Decode(std::span<const VoxelObservable> measurements) const;

  // The data path: demaps every voxel straight to bit LLRs for the LDPC
  // decoder (positive LLR = "bit is 0"), voxel-major / LSB-first to match
  // ecc/bits.h, clamped to +-30. Same model as Decode() followed by
  // log(P(bit=0) / P(bit=1)), evaluated in float with a shared polynomial
  // exp/log (within 1e-4 of the double formula); every SIMD tier returns the
  // same bits as the scalar loop. Azimuths outside [0, pi) are reduced mod pi.
  std::vector<float> DemapToLlrs(std::span<const VoxelObservable> measurements) const;

  const Constellation& constellation() const { return *constellation_; }

 private:
  const Constellation* constellation_;
  ReadChannelParams channel_;
  SoftDecoderParams params_;
  SoftDemapTables tables_;
};

}  // namespace silica

#endif  // SILICA_CHANNEL_SOFT_DECODER_H_
