#include "faults/media_aging.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace silica {

MediaAgingConfig MediaAgingConfig::Exponential(double mean_gap_s) {
  if (!(mean_gap_s >= 0.0)) {
    throw std::invalid_argument(
        "MediaAgingConfig::Exponential: mean gap must be >= 0 (0 = off); got " +
        std::to_string(mean_gap_s));
  }
  MediaAgingConfig config;
  if (mean_gap_s > 0.0) {
    config.event_gap = std::make_shared<ExponentialDistribution>(mean_gap_s);
  }
  return config;
}

uint64_t MediaAger::Age(GlassPlatter& platter, double years) const {
  if (years <= 0.0) {
    return 0;
  }
  // Key the damage stream to the platter alone so the result is independent of
  // the order platters are aged in.
  Rng rng = base_.Fork(0xA6ED'0000u + platter.platter_id());

  platter.AddAgeStress(params_.stress_per_year * years);

  const MediaGeometry& geometry = platter.geometry();
  const int voxels = geometry.voxels_per_sector();
  const uint64_t events = rng.Poisson(params_.lse_events_per_year * years);
  uint64_t struck = 0;
  std::vector<size_t> eroded;
  for (uint64_t e = 0; e < events; ++e) {
    const int64_t sectors =
        rng.UniformInt(1, std::max(1, params_.max_sectors_per_event));
    for (int64_t s = 0; s < sectors; ++s) {
      SectorAddress address;
      address.track =
          static_cast<int>(rng.UniformInt(0, geometry.tracks_per_platter() - 1));
      address.sector =
          static_cast<int>(rng.UniformInt(0, geometry.sectors_per_track() - 1));
      eroded.clear();
      for (int v = 0; v < voxels; ++v) {
        if (rng.Bernoulli(params_.voxel_erasure_fraction)) {
          eroded.push_back(static_cast<size_t>(v));
        }
      }
      if (platter.Erode(address, eroded) > 0) {
        ++struck;
      }
    }
  }
  return struck;
}

}  // namespace silica
