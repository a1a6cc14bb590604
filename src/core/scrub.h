// Background-scrub control plane for the library twin (Sections 3.1, 7.2):
// per-platter health tracking plus the policy that picks which stored platter
// an idle dual-slot drive should verify next.
//
// The scheduler is deliberately blind to ground truth: `latent[]` damage is
// what the aging model has silently done to a platter, and the scheduler never
// reads it to make decisions. Damage only becomes actionable when a drive
// *reads* the platter — a scrub pass or a customer session — exactly like a
// real library, where CRC failures during reads are the only signal that glass
// has decayed. Selection is a deterministic round-robin sweep with a
// suspect-first fast path (platters flagged by customer-read detections jump
// the queue and bypass the per-platter interval).
#ifndef SILICA_CORE_SCRUB_H_
#define SILICA_CORE_SCRUB_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "ecc/repair.h"

namespace silica {

struct ScrubConfig {
  bool enabled = false;

  // Minimum time between scrub passes of the same platter. The fleet-wide
  // scrub cycle is then bounded by num_platters / (idle drive capacity).
  double platter_interval_s = 6.0 * 3600.0;

  // Fraction of the platter streamed per scrub pass. Full-platter verification
  // at production scale takes tens of hours of drive time; like TALICS-style
  // media tests, a pass samples tracks and still surfaces latent damage
  // (sampled verification; detection model treats a pass as sufficient).
  double track_sample_fraction = 0.05;

  // Extra drive-read time per damaged sector repaired inline at the drive,
  // expressed in units of one sector's streaming time, per on-platter tier
  // (LDPC retry, within-track NC gather, large-group gather).
  double repair_read_factor[3] = {2.0, 8.0, 64.0};

  // Tier-3 rebuild: time to rewrite + verify the replacement platter once the
  // set peers have been read (the reads themselves are simulated as real
  // recovery fan-out traffic through the drives).
  double rebuild_write_s = 1800.0;

  // A rebuild that cannot gather enough readable set peers backs off
  // exponentially (base * 2^attempt, capped) and is abandoned — data loss —
  // after max_rebuild_retries probes.
  double rebuild_backoff_base_s = 120.0;
  double rebuild_backoff_cap_s = 7200.0;
  int max_rebuild_retries = 6;
};

struct PlatterHealth {
  // Undetected damaged sectors, bucketed by the repair tier they will need.
  // Ground truth written by the aging model; read only at detection time.
  uint64_t latent[kNumRepairTiers] = {0, 0, 0, 0};
  double last_scrub = -1e30;  // set when a scrub is *dispatched*
  bool rebuilding = false;    // tier-3 rebuild in flight; platter reads degrade
  bool lost = false;          // rebuild abandoned; bytes_lost recorded

  template <class Ar>
  void Visit(Ar& ar) {
    ar(latent, last_scrub, rebuilding, lost);
  }

  uint64_t TotalLatent() const {
    uint64_t total = 0;
    for (int t = 0; t < kNumRepairTiers; ++t) {
      total += latent[t];
    }
    return total;
  }
};

class ScrubScheduler {
 public:
  void Init(const ScrubConfig& config, size_t num_platters) {
    config_ = config;
    health_.assign(num_platters, PlatterHealth{});
    suspect_flag_.assign(num_platters, 0);
    suspects_.clear();
    cursor_ = 0;
  }

  bool initialized() const { return !health_.empty(); }
  const ScrubConfig& config() const { return config_; }

  // Grows on demand: platters written after Init (the write pipeline) are
  // scrubbed like any other.
  PlatterHealth& health(uint64_t platter) {
    if (platter >= health_.size()) {
      health_.resize(platter + 1);
      suspect_flag_.resize(platter + 1, 0);
    }
    return health_[platter];
  }

  void RecordDamage(uint64_t platter, RepairTier tier, uint64_t sectors) {
    health(platter).latent[static_cast<int>(tier)] += sectors;
  }

  // A customer read surfaced damage this drive visit could not repair inline;
  // the platter jumps the scrub queue.
  void MarkSuspect(uint64_t platter) {
    health(platter);  // ensure sized
    if (suspect_flag_[platter] == 0) {
      suspect_flag_[platter] = 1;
      suspects_.push_back(platter);
    }
  }

  // Next platter to scrub, or nullopt. Suspects drain first (no interval
  // gating); otherwise a bounded round-robin sweep returns the first platter
  // whose interval elapsed and that `eligible` (partition/accessibility/state
  // checks supplied by the twin) accepts. Marks the pick's last_scrub = now.
  template <typename Pred>
  std::optional<uint64_t> SelectPlatter(double now, Pred&& eligible) {
    while (!suspects_.empty()) {
      const uint64_t p = suspects_.front();
      PlatterHealth& h = health_[p];
      if (h.rebuilding || h.lost || !eligible(p)) {
        // Not scrubbable right now (at a drive, dark, wrong partition...);
        // leave it queued for the next dispatch opportunity.
        break;
      }
      suspects_.pop_front();
      suspect_flag_[p] = 0;
      h.last_scrub = now;
      return p;
    }
    const size_t n = health_.size();
    const size_t budget = n < kScanBudget ? n : kScanBudget;
    for (size_t i = 0; i < budget; ++i) {
      const uint64_t p = cursor_;
      cursor_ = (cursor_ + 1) % n;
      PlatterHealth& h = health_[p];
      if (h.rebuilding || h.lost || now - h.last_scrub < config_.platter_interval_s) {
        continue;
      }
      if (eligible(p)) {
        h.last_scrub = now;
        return p;
      }
    }
    return std::nullopt;
  }

  // Checkpoint field list (common/state_io.h): per-platter health, the
  // suspect queue (order matters — suspects drain FIFO), and the round-robin
  // cursor. The config is rebuilt from LibrarySimConfig, not serialized.
  // Health covers at least the platters known at Init (it only grows), and
  // the suspect flags cover exactly the same platters.
  template <class Ar>
  void Visit(Ar& ar) {
    ar.Seq(health_, health_.size(), SIZE_MAX,
           "ScrubScheduler checkpoint: platter health table shrank");
    ar.Seq(suspect_flag_, health_.size(), health_.size(),
           "ScrubScheduler checkpoint: suspect flags do not match health");
    ar(suspects_, cursor_);
  }

 private:
  static constexpr size_t kScanBudget = 256;

  ScrubConfig config_;
  std::vector<PlatterHealth> health_;
  std::vector<uint8_t> suspect_flag_;
  std::deque<uint64_t> suspects_;
  size_t cursor_ = 0;
};

}  // namespace silica

#endif  // SILICA_CORE_SCRUB_H_
