// Media degradation model: written glass is *almost* immortal, but not quite.
// Two coupled effects, both deterministic per (seed, platter):
//
//   * voxel-noise aging — nanograting contrast decays over time, widening the
//     read channel's effective noise (ReadChannelParams::Aged). The decoder
//     keeps pristine priors, so aged sectors start failing LDPC and climbing
//     the repair ladder.
//   * latent sector errors — localized damage (micro-cracks, inclusions,
//     handling) erodes clusters of voxels in individual sectors to
//     kMissingVoxel. Latent: nobody notices until the sector is next read —
//     by a customer or by the background scrubber.
//
// Two views of the same physics live here:
//   MediaAgingConfig — the control-plane law the FaultInjector runs inside the
//     library twin (a renewal process per platter emitting damage events whose
//     severity the twin samples from a per-platter forked stream);
//   MediaAger        — the data-plane mutator that physically damages a
//     GlassPlatter in memory, for end-to-end decode/repair tests and the
//     SilicaService scrub entry point.
#ifndef SILICA_FAULTS_MEDIA_AGING_H_
#define SILICA_FAULTS_MEDIA_AGING_H_

#include <cstdint>
#include <memory>

#include "common/distributions.h"
#include "common/rng.h"
#include "ecc/repair.h"
#include "media/platter.h"

namespace silica {

// Control-plane law: when damage events hit a stored platter and how bad they
// are. Repair-tier weights express how deep a given latent error reaches: most
// damage is shallow (an LDPC retry after re-reading clears it), a long tail
// needs the within-track / large-group codes, and the rare worst case is only
// recoverable from the 16+3 platter set.
struct MediaAgingConfig {
  // Inter-event time per platter; nullptr disables aging entirely.
  std::shared_ptr<const Distribution> event_gap;

  // Sectors struck per damage event: Uniform{1..max_sectors_per_event}.
  int max_sectors_per_event = 4;

  // P(a struck sector needs exactly tier t to repair), indexed by RepairTier.
  // Normalized at sample time; defaults follow the "shallow damage dominates"
  // shape of archival LSE studies.
  double tier_weights[kNumRepairTiers] = {0.58, 0.25, 0.12, 0.05};

  bool enabled() const { return event_gap != nullptr; }

  // Memoryless damage arrivals with the given mean gap (seconds per event per
  // platter; 0 disables aging, a negative gap throws); the reliability-standard
  // parameterization, mirroring FaultProcess::Exponential.
  static MediaAgingConfig Exponential(double mean_gap_s);
};

// Data-plane physical aging parameters, expressed per platter-year.
struct MediaAgingParams {
  double stress_per_year = 0.08;       // read-noise widening per year
  double lse_events_per_year = 2.0;    // Poisson mean of latent-error events
  int max_sectors_per_event = 3;       // sectors struck per event
  double voxel_erasure_fraction = 0.3; // voxels blanked in a struck sector
};

// Applies `years` of decay to a platter in place. Deterministic for a given
// (seed, platter_id): the damage pattern is drawn from a stream forked off the
// platter id, so aging the same platter by the same amount always produces the
// same glass, regardless of call order across platters.
class MediaAger {
 public:
  MediaAger(MediaAgingParams params, uint64_t seed)
      : params_(params), base_(seed) {}

  // Returns the number of sectors struck by latent errors.
  uint64_t Age(GlassPlatter& platter, double years) const;

  const MediaAgingParams& params() const { return params_; }

 private:
  MediaAgingParams params_;
  Rng base_;
};

}  // namespace silica

#endif  // SILICA_FAULTS_MEDIA_AGING_H_
