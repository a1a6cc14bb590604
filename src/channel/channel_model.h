// Write/read channel models for the glass data plane.
//
// This is the substitution for hardware we do not have (see DESIGN.md): the
// femtosecond-laser write process and the polarization-microscopy read process are
// replaced by parametric noise models that reproduce the error modes Section 5
// describes:
//   * write-time errors — rare voxels missing entirely (nonoptimal laser energy,
//     particulates in the optical path), optionally bursty within a sector;
//   * read-time errors — stochastic sensor noise on retardance and azimuth, plus
//     inter-symbol interference from the 8-neighbourhood in the XY plane and
//     scattered light from adjacent Z layers.
#ifndef SILICA_CHANNEL_CHANNEL_MODEL_H_
#define SILICA_CHANNEL_CHANNEL_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "channel/constellation.h"
#include "common/rng.h"

namespace silica {

struct WriteChannelParams {
  double voxel_miss_prob = 1e-5;   // independent missing-voxel probability
  double burst_miss_prob = 1e-6;   // probability a burst starts at a voxel
  int burst_length = 32;           // voxels blanked per burst (particulate shadow)
};

struct ReadChannelParams {
  double retardance_sigma = 0.045;  // sensor noise on retardance
  double azimuth_sigma = 0.075;     // radians of azimuth noise
  double isi_coupling = 0.06;       // pull toward the XY-neighbour mean retardance
  double layer_crosstalk = 0.02;    // additive scattered light from adjacent layers

  // Media aging widens the measurement: nanograting contrast decays, so sensor
  // noise and crosstalk grow with the platter's accumulated age stress. The
  // decoder keeps its pristine priors — it does not know the glass has aged —
  // which is exactly what makes old sectors fail LDPC and climb the repair
  // ladder.
  ReadChannelParams Aged(double stress) const;
};

// The "written" analog state of a sector: one observable per voxel, with missing
// voxels flagged. Produced by the write drive, consumed by the read drive model.
struct AnalogSector {
  int rows = 0;
  int cols = 0;
  std::vector<VoxelObservable> voxels;  // rows*cols entries
  std::vector<uint8_t> missing;         // 1 if the voxel failed to form

  size_t Index(int r, int c) const {
    return static_cast<size_t>(r) * static_cast<size_t>(cols) +
           static_cast<size_t>(c);
  }
};

// Models the femtosecond-laser write drive: symbols -> analog voxels, with
// write-time dropouts.
class WriteChannel {
 public:
  WriteChannel(const Constellation& constellation, WriteChannelParams params)
      : constellation_(&constellation), params_(params) {}

  AnalogSector WriteSector(std::span<const uint16_t> symbols, int rows, int cols,
                           Rng& rng) const;

 private:
  const Constellation* constellation_;
  WriteChannelParams params_;
};

// Models the polarization-microscopy read drive: analog voxels -> noisy measurements.
// The read process cannot alter the written state (the input is const), mirroring the
// physical guarantee in Section 3.
class ReadChannel {
 public:
  explicit ReadChannel(ReadChannelParams params) : params_(params) {}

  // Produces one measurement per voxel. Consumes exactly three NextU64 draws
  // per voxel and leaves the stream's cached normal untouched (DESIGN.md §11).
  std::vector<VoxelObservable> ReadSector(const AnalogSector& sector, Rng& rng) const;

  // The same measurement of stored symbols, written as `constellation` maps
  // them; a symbol outside the constellation (the kMissingVoxel sentinel of
  // media/platter.h) reads as blank glass, like an AnalogSector's missing
  // voxel. Measurements and Rng consumption equal ReadSector over the
  // equivalent AnalogSector.
  std::vector<VoxelObservable> ReadSymbols(const Constellation& constellation,
                                           std::span<const uint16_t> symbols,
                                           int rows, int cols, Rng& rng) const;

  const ReadChannelParams& params() const { return params_; }

 private:
  ReadChannelParams params_;
};

// The read channel's Gaussian noise: Box-Muller pairs over raw Rng draws,
// normals[2i] = r cos(theta) and normals[2i + 1] = r sin(theta) from
// u1 = draws[i * stride] and u2 = draws[i * stride + 1] (the gaussian_fill
// contract of ecc/simd/gf256_kernels.h). GaussianFillReference is the scalar
// reference every SIMD tier reproduces bit for bit; GaussianFill runs the
// active tier's kernel.
void GaussianFillReference(const uint64_t* draws, size_t stride, size_t n,
                           double* normals);
void GaussianFill(const uint64_t* draws, size_t stride, size_t n, double* normals);

}  // namespace silica

#endif  // SILICA_CHANNEL_CHANNEL_MODEL_H_
