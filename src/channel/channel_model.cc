#include "channel/channel_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

// The read-drive model over any written state: `written(i)` is the observable
// voxel i holds. Interior voxels sum their 8 neighbours without bounds checks,
// in the same (dr, dc) order as the border loop, so both give the same bits.
template <class Written>
std::vector<VoxelObservable> Measure(const ReadChannelParams& params, int rows,
                                     int cols, const Written& written, Rng& rng) {
  std::vector<VoxelObservable> measured(static_cast<size_t>(rows) *
                                        static_cast<size_t>(cols));
  const auto stride = static_cast<size_t>(cols);
  for (int r = 0; r < rows; ++r) {
    const bool interior_row = r > 0 && r + 1 < rows;
    for (int c = 0; c < cols; ++c) {
      const size_t i = static_cast<size_t>(r) * stride + static_cast<size_t>(c);
      const VoxelObservable v = written(i);

      // Inter-symbol interference: the imaging spot picks up a fraction of the
      // neighbouring voxels' retardance.
      double neighbour_mean = 0.0;
      if (interior_row && c > 0 && c + 1 < cols) {
        double neighbour_sum = 0.0;
        neighbour_sum += written(i - stride - 1).retardance;
        neighbour_sum += written(i - stride).retardance;
        neighbour_sum += written(i - stride + 1).retardance;
        neighbour_sum += written(i - 1).retardance;
        neighbour_sum += written(i + 1).retardance;
        neighbour_sum += written(i + stride - 1).retardance;
        neighbour_sum += written(i + stride).retardance;
        neighbour_sum += written(i + stride + 1).retardance;
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
                  written(static_cast<size_t>(nr) * stride + static_cast<size_t>(nc))
                      .retardance;
              ++neighbour_count;
            }
          }
        }
        if (neighbour_count > 0) {
          neighbour_mean = neighbour_sum / neighbour_count;
        }
      }

      // Sensor noise draws stay in the original order: crosstalk uniform, then
      // the retardance normal, then the azimuth normal.
      const double crosstalk = params.layer_crosstalk * rng.NextDouble();
      double retardance = v.retardance +
                          params.isi_coupling * (neighbour_mean - v.retardance) +
                          crosstalk + rng.Normal(0.0, params.retardance_sigma);
      retardance = std::clamp(retardance, 0.0, 1.5);

      double azimuth = v.azimuth + rng.Normal(0.0, params.azimuth_sigma);
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

std::vector<VoxelObservable> ReadChannel::ReadSector(const AnalogSector& sector,
                                                     Rng& rng) const {
  return Measure(params_, sector.rows, sector.cols,
                 [&](size_t i) { return sector.voxels[i]; }, rng);
}

std::vector<VoxelObservable> ReadChannel::ReadSymbols(
    const Constellation& constellation, std::span<const uint16_t> symbols, int rows,
    int cols, Rng& rng) const {
  if (symbols.size() != static_cast<size_t>(rows) * static_cast<size_t>(cols)) {
    throw std::invalid_argument("ReadChannel: symbol count != rows*cols");
  }
  const auto num_symbols = static_cast<uint16_t>(constellation.num_symbols());
  return Measure(params_, rows, cols,
                 [&](size_t i) {
                   const uint16_t s = symbols[i];
                   return s < num_symbols ? constellation.Point(s)
                                          : VoxelObservable{0.0, 0.0};
                 },
                 rng);
}

}  // namespace silica
