// Set-level durability model and rare-event MTTDL estimator (DESIGN.md §17).
//
// The library twin resolves every shuttle pick and drive mount, which makes it
// the wrong instrument for MTTDL: data loss at realistic AFRs happens once per
// many device-decades, far beyond what picking shuttles can reach. This model
// keeps only what durability depends on — per-set failure counts, detection
// lag, and repair service under a bandwidth budget — so decade horizons cost
// microseconds per trajectory, and layers importance splitting on top to reach
// the rare loss states.
//
// Model (one "set" = an n-wide erasure group, k data + (n-k) redundancy):
//   * platters fail independently at a constant rate; a set with f failures
//     has n-f live platters exposed;
//   * a failure is silent until a scrub pass detects it, uniform within one
//     scrub interval;
//   * eager repair: every detected failure is rebuilt immediately with
//     dedicated bandwidth (repairs proceed in parallel);
//   * lazy repair: detected failures queue for a single global repair server
//     whose service rate is the repair-bandwidth budget; queue order is
//     remaining redundancy first (closest-to-loss set wins), detection time
//     second. Rebuilding one platter reads its k surviving data-bearing peers,
//     so a repair costs k * platter_bytes of budget — wide codes buy depth at
//     the price of repair amplification, the liquid-storage frontier.
//   * loss: a set with more than n-k failures is unrecoverable.
//
// Trajectory state is plain-copyable (the Rng rides along), so a checkpoint is
// a struct copy — exactly what importance splitting needs at level crossings.
//
// Importance splitting (fixed splitting, levels = max failures in any set):
// the first time a trajectory raises its level, it is cloned into K branches,
// each carrying weight 1/K of its parent and a freshly forked RNG stream. A
// branch that reaches loss contributes its weight to the loss estimate. Each
// split preserves the expectation (K branches x 1/K weight), so the estimator
// is unbiased; R independent roots give a sample variance and a 95% CI.
// P_loss(horizon) in hand, MTTDL ~= horizon / P_loss for rare losses.
#ifndef SILICA_SIM_DURABILITY_MODEL_H_
#define SILICA_SIM_DURABILITY_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace silica {

class StateReader;

struct DurabilityConfig {
  int num_sets = 256;
  int n = 19;  // platters per set
  int k = 16;  // data platters per set (n - k failures tolerated)
  double platter_bytes = 100.0e9;
  // Annualized failure rate per platter (media + mechanical, folded together).
  double fail_rate_per_platter_year = 0.02;
  // A failure is detected uniformly within one scrub cycle.
  double scrub_interval_s = 30.0 * 24.0 * 3600.0;
  // Lazy: global single-server repair budget. Eager: dedicated per-repair rate.
  double repair_bandwidth_bytes_per_s = 50.0e6;
  bool lazy = false;
  double horizon_s = 10.0 * 365.25 * 24.0 * 3600.0;
  uint64_t seed = 0x5117CA;

  int redundancy() const { return n - k; }
  // Rebuilding one platter streams its k surviving peers.
  double repair_bytes() const { return static_cast<double>(k) * platter_bytes; }
};

// One erasure set's live state. Vectors are tiny (bounded by n-k+1 in-flight
// failures) and copy cheaply.
struct DurabilitySetState {
  int failed = 0;                   // unrepaired failures, detected or not
  std::vector<double> detect_at;    // pending detection times (unsorted)
  std::vector<double> repair_done;  // eager in-flight repair completions
  int queued = 0;                   // lazy failures admitted (incl. in service)

  template <class Ar>
  void Visit(Ar& ar) {
    ar(failed, detect_at, repair_done, queued);
  }
};

struct DurabilityLazyItem {
  int set = -1;
  double detected_at = 0.0;
  uint64_t seq = 0;

  template <class Ar>
  void Visit(Ar& ar) {
    ar(set, detected_at, seq);
  }
};

// Full trajectory state: copy-constructible == checkpointable.
struct DurabilityState {
  double now = 0.0;
  Rng rng;
  std::vector<DurabilitySetState> sets;
  int64_t alive = 0;          // platters currently able to fail
  double next_failure = 0.0;  // fleet-wide, resampled when `alive` changes
  std::vector<DurabilityLazyItem> queue;  // lazy backlog (excl. in service)
  int service_set = -1;                   // lazy repair in service (-1 idle)
  double service_done = 0.0;
  uint64_t next_seq = 0;
  int max_failed = 0;  // level function: worst failure count reached so far
  bool lost = false;
  int lost_set = -1;
  double loss_time = 0.0;
  uint64_t failures = 0;
  uint64_t repairs = 0;

  // Checkpoint field list (common/state_io.h). `sets` must be sized to the
  // model's set count before a load; DurabilityModel::Restore does that.
  template <class Ar>
  void Visit(Ar& ar) {
    ar(now, rng);
    ar.Fixed(sets, "DurabilityModel checkpoint: set count mismatch");
    ar(alive, next_failure, queue, service_set, service_done, next_seq,
       max_failed, lost, lost_set, loss_time, failures, repairs);
  }
};

class DurabilityModel {
 public:
  explicit DurabilityModel(const DurabilityConfig& config);

  const DurabilityConfig& config() const { return config_; }

  // Fresh trajectory with its own root RNG stream.
  DurabilityState MakeInitialState(uint64_t root_index) const;

  enum class StepOutcome {
    kAdvanced,  // an event fired, nothing notable
    kLevelUp,   // a failure pushed max_failed to a new high (split point)
    kLoss,      // a set exceeded n-k failures: trajectory ends
    kHorizon,   // reached config.horizon_s without loss
  };

  // Advances the state to its next event. After kLoss or kHorizon the state is
  // terminal and Step must not be called again.
  StepOutcome Step(DurabilityState& s) const;

  // Loads a state saved through a StateWriter (checkpoint-format round-trip
  // test; splitting itself uses struct copies). Throws on a set-count
  // mismatch with this model's config.
  DurabilityState Restore(StateReader& r) const;

 private:
  double FailRatePerSecond() const;
  void ResampleFailure(DurabilityState& s) const;
  void StartNextService(DurabilityState& s) const;

  DurabilityConfig config_;
};

struct MttdlEstimate {
  double p_loss = 0.0;      // probability of >= 1 set loss within the horizon
  double ci_low = 0.0;      // 95% CI on p_loss across roots
  double ci_high = 0.0;
  double mttdl_years = 0.0;  // horizon / p_loss, in years (inf if no loss seen)
  double mttdl_years_low = 0.0;
  double mttdl_years_high = 0.0;
  // Expected user bytes lost per exabyte stored per year.
  double bytes_lost_per_exabyte_year = 0.0;
  double weighted_losses = 0.0;  // sum of loss-branch weights (= p_loss * roots)
  uint64_t loss_branches = 0;    // branches that reached loss
  uint64_t trajectories = 0;     // total branches simulated
  uint64_t roots = 0;
  uint64_t events = 0;           // model events stepped (work measure)
  double mean_loss_time_years = 0.0;  // weighted mean first-loss time
};

// Importance-splitting estimator: R independent roots, each split K ways at
// every first crossing of a new max-failure level. split_k == 1 degenerates to
// brute-force Monte Carlo (the validation baseline).
MttdlEstimate EstimateMttdl(const DurabilityConfig& config, int roots,
                            int split_k);

// JSON report (tools/silica_sim --mttdl and bench_durability embed this).
std::string MttdlEstimateToJson(const DurabilityConfig& config,
                                const MttdlEstimate& estimate, int split_k,
                                int indent);

}  // namespace silica

#endif  // SILICA_SIM_DURABILITY_MODEL_H_
