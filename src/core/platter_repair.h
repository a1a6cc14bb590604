// The per-layer repair escalation ladder over a damaged GlassPlatter
// (Section 3.1's recovery hierarchy, run bottom-up with tier attribution):
//
//   tier 0  LDPC retry     — re-read the failing sector; fresh channel noise
//                            often clears marginal sectors on aged glass;
//   tier 1  within-track   — GF(256) NC over the track's I_t + R_t sectors;
//   tier 2  large group    — NC across the platter's track groups;
//   tier 3  platter set    — 16+3 GF(2^16) rebuild from set peers.
//
// Tiers 0-2 run inside PlatterReader's track read; the repairer attributes
// what it recovered and runs tier 3 itself. Every detected information-sector
// failure is attributed to exactly one tier (or to `unrecoverable`), so the
// outcome ledger conserves. When everything is
// recovered, the platter is rewritten through the ordinary write pipeline
// (files reassembled from the repaired payload grid -> PlatterWriter), which is
// how the library replaces decayed media: glass cannot be patched in place.
#ifndef SILICA_CORE_PLATTER_REPAIR_H_
#define SILICA_CORE_PLATTER_REPAIR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/data_pipeline.h"
#include "ecc/repair.h"

namespace silica {

struct PlatterRepairOutcome {
  // Information sectors of information tracks only (damage to redundancy
  // sectors/tracks costs protection margin, not data, and is restored by the
  // rewrite).
  RepairLedger ledger;
  bool data_intact = false;  // every information payload recovered by some tier
  // The replacement platter (same id, fresh glass), present when repairs were
  // needed and all data was recovered.
  std::optional<WrittenPlatter> rewritten;
};

class PlatterRepairer {
 public:
  explicit PlatterRepairer(const DataPlane& plane, int ldpc_retries = 2)
      : plane_(&plane), ldpc_retries_(ldpc_retries) {}

  // Runs the ladder over every information track of `damaged`. `set_codec` and
  // the peer platters (the rest of the 16+3 set, with their in-set indices) are
  // optional: pass nullptr/empty to restrict repair to the on-platter tiers.
  // `index_in_set` is the damaged platter's information index within its set.
  PlatterRepairOutcome Repair(
      const GlassPlatter& damaged, const PlatterSetCodec* set_codec,
      const std::vector<const GlassPlatter*>& peer_info,
      const std::vector<size_t>& peer_info_indices,
      const std::vector<const GlassPlatter*>& peer_redundancy,
      const std::vector<size_t>& peer_redundancy_indices, size_t index_in_set,
      Rng& rng) const;

 private:
  const DataPlane* plane_;
  int ldpc_retries_;
};

}  // namespace silica

#endif  // SILICA_CORE_PLATTER_REPAIR_H_
