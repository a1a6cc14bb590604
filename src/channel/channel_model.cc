#include "channel/channel_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "ecc/simd/gf256_kernels.h"

namespace silica {

AnalogSector WriteChannel::WriteSector(std::span<const uint16_t> symbols, int rows,
                                       int cols, Rng& rng) const {
  if (symbols.size() != static_cast<size_t>(rows) * static_cast<size_t>(cols)) {
    throw std::invalid_argument("WriteChannel: symbol count != rows*cols");
  }
  AnalogSector sector;
  sector.rows = rows;
  sector.cols = cols;
  sector.voxels.resize(symbols.size());
  sector.missing.assign(symbols.size(), 0);

  for (size_t i = 0; i < symbols.size(); ++i) {
    sector.voxels[i] = constellation_->Point(symbols[i]);
  }

  // Independent dropouts.
  for (size_t i = 0; i < symbols.size(); ++i) {
    if (rng.Bernoulli(params_.voxel_miss_prob)) {
      sector.missing[i] = 1;
    }
  }
  // Bursty dropouts: a particulate shadows a run of consecutive voxels in scan order.
  for (size_t i = 0; i < symbols.size(); ++i) {
    if (rng.Bernoulli(params_.burst_miss_prob)) {
      const size_t end = std::min(symbols.size(),
                                  i + static_cast<size_t>(params_.burst_length));
      for (size_t j = i; j < end; ++j) {
        sector.missing[j] = 1;
      }
    }
  }
  for (size_t i = 0; i < symbols.size(); ++i) {
    if (sector.missing[i]) {
      sector.voxels[i].retardance = 0.0;  // no structure formed
      sector.voxels[i].azimuth = 0.0;
    }
  }
  return sector;
}

ReadChannelParams ReadChannelParams::Aged(double stress) const {
  ReadChannelParams aged = *this;
  const double widen = 1.0 + std::max(0.0, stress);
  aged.retardance_sigma *= widen;
  aged.azimuth_sigma *= widen;
  aged.layer_crosstalk *= widen;
  return aged;
}

namespace {

// One Box-Muller pair; see the gaussian_fill contract in
// ecc/simd/gf256_kernels.h. The vector tiers perform exactly these IEEE
// operations in this order.
void GaussianPair(uint64_t u1_bits, uint64_t u2_bits, double* normal) {
  // r = sqrt(-2 log u1): split u1 = 2^e * m with m in [sqrt(1/2), sqrt(2)),
  // then log(1 + x) with x = m - 1. u1 >= 2^-53, so it is never subnormal.
  const double k = std::max(static_cast<double>(u1_bits >> 11), 1.0);
  const uint64_t bits = std::bit_cast<uint64_t>(k * gaussian::kU53Scale);
  double e = static_cast<double>(static_cast<int64_t>(bits >> 52) - 1022);
  const double m = std::bit_cast<double>((bits & gaussian::kMantissaMask) |
                                         gaussian::kHalfExponent);
  double x;
  if (m < gaussian::kSqrtHalf) {
    e = e - 1.0;
    x = (m + m) - 1.0;
  } else {
    x = m - 1.0;
  }
  const double z = x * x;
  double p = gaussian::kLogP[0];
  for (int i = 1; i < 6; ++i) {
    p = p * x + gaussian::kLogP[i];
  }
  double q = x + gaussian::kLogQ[0];
  for (int i = 1; i < 5; ++i) {
    q = q * x + gaussian::kLogQ[i];
  }
  double y = x * ((z * p) / q);
  y = y + e * gaussian::kLn2Lo;
  y = y - 0.5 * z;
  const double log_u1 = (x + y) + e * gaussian::kLn2Hi;
  const double r = std::sqrt(-2.0 * log_u1);

  // theta = 2 pi u2 = (octant + f) * pi/4 with the octant in u2's top 3 bits
  // and the 50-bit fraction f exact, so no argument reduction is needed: the
  // polynomials run at f * pi/4, reflected on odd octants ((1 - f) is exact),
  // and the octant then picks which of them is the sine and the signs.
  const auto octant = static_cast<unsigned>(u2_bits >> 61);
  const double f = static_cast<double>((u2_bits >> 11) & gaussian::kFractionMask) *
                   gaussian::kFractionScale;
  const double xa = ((octant & 1) != 0 ? 1.0 - f : f) * gaussian::kPiOver4;
  const double zz = xa * xa;
  double ps = gaussian::kSin[0];
  double pc = gaussian::kCos[0];
  for (int i = 1; i < 6; ++i) {
    ps = ps * zz + gaussian::kSin[i];
    pc = pc * zz + gaussian::kCos[i];
  }
  const double s = xa + xa * (zz * ps);
  const double c = (1.0 - 0.5 * zz) + (zz * zz) * pc;
  const bool swap = ((octant ^ (octant >> 1)) & 1) != 0;
  double sin_v = swap ? c : s;
  double cos_v = swap ? s : c;
  if ((octant & 4) != 0) {
    sin_v = -sin_v;
  }
  if (((octant + 2) & 4) != 0) {
    cos_v = -cos_v;
  }
  normal[0] = r * cos_v;
  normal[1] = r * sin_v;
}

// The read-drive model over the written state, one observable per voxel.
// Interior voxels sum their 8 neighbours without bounds checks, in the same
// (dr, dc) order as the border loop, so both give the same bits.
//
// Noise contract: three raw draws per voxel, in the order crosstalk uniform,
// Box-Muller u1, u2, taken in one FillU64; the stream's cached normal is
// neither read nor written. Retardance noise is r cos(theta), azimuth noise
// r sin(theta).
std::vector<VoxelObservable> Measure(const ReadChannelParams& params, int rows,
                                     int cols,
                                     std::span<const VoxelObservable> written,
                                     Rng& rng) {
  const auto stride = static_cast<size_t>(cols);
  const size_t voxels = static_cast<size_t>(rows) * stride;
  std::vector<VoxelObservable> measured(voxels);
  if (voxels == 0) {
    return measured;
  }
  // Per-thread scratch, reused across sectors: fresh buffers cost a sector
  // more in page faults than drawing its noise does.
  thread_local std::vector<uint64_t> draws;
  thread_local std::vector<double> normals;
  draws.resize(3 * voxels);
  normals.resize(2 * voxels);
  rng.FillU64(draws.data(), draws.size());
  GaussianFill(draws.data() + 1, 3, voxels, normals.data());

  for (int r = 0; r < rows; ++r) {
    const bool interior_row = r > 0 && r + 1 < rows;
    for (int c = 0; c < cols; ++c) {
      const size_t i = static_cast<size_t>(r) * stride + static_cast<size_t>(c);
      const VoxelObservable v = written[i];

      // Inter-symbol interference: the imaging spot picks up a fraction of the
      // neighbouring voxels' retardance.
      double neighbour_mean = 0.0;
      if (interior_row && c > 0 && c + 1 < cols) {
        double neighbour_sum = 0.0;
        neighbour_sum += written[i - stride - 1].retardance;
        neighbour_sum += written[i - stride].retardance;
        neighbour_sum += written[i - stride + 1].retardance;
        neighbour_sum += written[i - 1].retardance;
        neighbour_sum += written[i + 1].retardance;
        neighbour_sum += written[i + stride - 1].retardance;
        neighbour_sum += written[i + stride].retardance;
        neighbour_sum += written[i + stride + 1].retardance;
        neighbour_mean = neighbour_sum / 8;
      } else {
        double neighbour_sum = 0.0;
        int neighbour_count = 0;
        for (int dr = -1; dr <= 1; ++dr) {
          for (int dc = -1; dc <= 1; ++dc) {
            if (dr == 0 && dc == 0) {
              continue;
            }
            const int nr = r + dr;
            const int nc = c + dc;
            if (nr >= 0 && nr < rows && nc >= 0 && nc < cols) {
              neighbour_sum +=
                  written[static_cast<size_t>(nr) * stride + static_cast<size_t>(nc)]
                      .retardance;
              ++neighbour_count;
            }
          }
        }
        if (neighbour_count > 0) {
          neighbour_mean = neighbour_sum / neighbour_count;
        }
      }

      const double crosstalk =
          params.layer_crosstalk *
          (static_cast<double>(draws[3 * i] >> 11) * gaussian::kU53Scale);
      double retardance = v.retardance +
                          params.isi_coupling * (neighbour_mean - v.retardance) +
                          crosstalk + params.retardance_sigma * normals[2 * i];
      retardance = std::clamp(retardance, 0.0, 1.5);

      double azimuth = v.azimuth + params.azimuth_sigma * normals[2 * i + 1];
      // fmod(x, pi) == x exactly for |x| < pi, the common case.
      if (!(std::fabs(azimuth) < M_PI)) {
        azimuth = std::fmod(azimuth, M_PI);
      }
      if (azimuth < 0.0) {
        azimuth += M_PI;
      }

      measured[i].retardance = retardance;
      measured[i].azimuth = azimuth;
    }
  }
  return measured;
}

}  // namespace

void GaussianFillReference(const uint64_t* draws, size_t stride, size_t n,
                           double* normals) {
  for (size_t i = 0; i < n; ++i) {
    GaussianPair(draws[i * stride], draws[i * stride + 1], normals + 2 * i);
  }
}

void GaussianFill(const uint64_t* draws, size_t stride, size_t n, double* normals) {
  if (const auto kernel = ActiveKernels().gaussian_fill) {
    kernel(draws, stride, n, normals);
  } else {
    GaussianFillReference(draws, stride, n, normals);
  }
}

std::vector<VoxelObservable> ReadChannel::ReadSector(const AnalogSector& sector,
                                                     Rng& rng) const {
  return Measure(params_, sector.rows, sector.cols, sector.voxels, rng);
}

std::vector<VoxelObservable> ReadChannel::ReadSymbols(
    const Constellation& constellation, std::span<const uint16_t> symbols, int rows,
    int cols, Rng& rng) const {
  if (symbols.size() != static_cast<size_t>(rows) * static_cast<size_t>(cols)) {
    throw std::invalid_argument("ReadChannel: symbol count != rows*cols");
  }
  const auto num_symbols = static_cast<uint16_t>(constellation.num_symbols());
  std::vector<VoxelObservable> written(symbols.size());
  for (size_t i = 0; i < symbols.size(); ++i) {
    const uint16_t s = symbols[i];
    written[i] = s < num_symbols ? constellation.Point(s) : VoxelObservable{0.0, 0.0};
  }
  return Measure(params_, rows, cols, written, rng);
}

}  // namespace silica
