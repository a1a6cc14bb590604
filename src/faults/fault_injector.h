// Dynamic fault injection for the digital twin (the robustness analogue of the
// telemetry pass): time-varying component failures and repairs, driven by the
// event engine instead of the static pre-run `unavailable_fraction` sample.
//
// Model: every shuttle, read drive, and storage rack (blast zone) is an
// independent renewal process. A component runs for an uptime sampled from its
// class's time-to-failure distribution, fails, is repaired after a sampled
// repair time (or never, modeling fail-stop loss), and re-enters service. Each
// component draws from its own forked RNG stream, so fault schedules are
// bit-reproducible for a seed and insensitive to how the host's events
// interleave with injection.
//
// The injector owns *when* things break; the host (the library twin) owns what
// breaking *means* — aborting in-flight shuttle motion, sealing a dead drive,
// darkening a blast zone — via the FaultHost callbacks, which fire from inside
// the simulator's event loop (callbacks may Cancel/Schedule re-entrantly; the
// engine's semantics for that are pinned by tests/sim_test.cc).
#ifndef SILICA_FAULTS_FAULT_INJECTOR_H_
#define SILICA_FAULTS_FAULT_INJECTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/distributions.h"
#include "common/rng.h"
#include "faults/media_aging.h"
#include "sim/simulator.h"

namespace silica {

class Counter;
struct Telemetry;

// One component class's failure/repair law. `uptime` samples time-to-failure
// from (re)entry into service; `repair` samples time-to-repair, or nullptr for
// permanent fail-stop. Shared pointers keep LibrarySimConfig cheaply copyable.
struct FaultProcess {
  std::shared_ptr<const Distribution> uptime;
  std::shared_ptr<const Distribution> repair;

  bool enabled() const { return uptime != nullptr; }

  // The standard reliability parameterization: exponential time-to-failure with
  // the given MTBF (0 disables the process), exponential repair with the given
  // MTTR (0 means failures are permanent). Negative values throw
  // std::invalid_argument.
  static FaultProcess Exponential(double mtbf_s, double mttr_s);
};

struct FaultConfig {
  FaultProcess shuttle;  // breakdown mid-transit; abort + work reassignment
  FaultProcess drive;    // read drive sealed; session resumes on repair
  FaultProcess rack;     // blast zone: resident platters go dark

  // Media degradation: latent damage events on stored platters. Unlike the
  // mechanical classes, media events never take a component "down" and have no
  // repair law — each event immediately renews, and undoing the damage is the
  // scrub/repair orchestrator's job, not the injector's.
  MediaAgingConfig aging;

  // No *new* failures are injected after this time (pending repairs still
  // complete). The host additionally stops injection once its workload is
  // resolved, so an open-ended window cannot keep the simulation alive forever.
  double inject_until_s = 1e30;

  // Degraded-mode control-plane policy: a platter that goes dark with queued
  // requests is retried with exponential backoff (base * 2^attempt, capped);
  // after max_retries probes it is given up on and its queued reads amplify
  // into cross-platter recovery reads, exactly as static unavailability does.
  double retry_backoff_base_s = 60.0;
  double retry_backoff_cap_s = 3600.0;
  int max_retries = 8;

  // A platter stranded on a shuttle that died mid-carry is recovered by an
  // operator after this delay and returns to its storage slot.
  double stranded_recovery_s = 600.0;

  bool enabled() const {
    return shuttle.enabled() || drive.enabled() || rack.enabled() ||
           aging.enabled();
  }
};

// What the injector tells the host. Component ids are dense [0, count).
class FaultHost {
 public:
  virtual ~FaultHost() = default;
  virtual void OnShuttleDown(int shuttle) = 0;
  virtual void OnShuttleRepaired(int shuttle) = 0;
  virtual void OnDriveDown(int drive) = 0;
  virtual void OnDriveRepaired(int drive) = 0;
  virtual void OnRackDown(int rack) = 0;
  virtual void OnRackRepaired(int rack) = 0;

  // A media-aging event struck stored platter `platter`. The host samples the
  // severity (sectors hit, repair tier needed) from its own per-platter stream.
  // Defaulted so hosts that predate media aging keep compiling unchanged.
  virtual void OnPlatterAged(int platter) { (void)platter; }
};

class FaultInjector {
 public:
  struct ClassStats {
    uint64_t failures = 0;
    uint64_t repairs = 0;
  };

  // `sim` and `host` must outlive the injector. Component counts fix how many
  // independent processes each class runs; `num_platters` drives the media
  // aging class (platters created after construction are not aged).
  FaultInjector(Simulator& sim, FaultHost& host, const FaultConfig& config,
                const Rng& rng, int num_shuttles, int num_drives, int num_racks,
                int num_platters = 0);

  // Schedules the first failure of every enabled component process.
  void Start();

  // Cancels all pending *failure* events; in-flight repairs still complete, so
  // every component that went down with a repair law comes back. Idempotent.
  // The host calls this once its workload is resolved so the renewal processes
  // do not keep the event queue non-empty forever.
  void StopInjecting();

  // Publishes fault/repair counters (labeled by component class) into the
  // registry; nullptr detaches.
  void SetTelemetry(Telemetry* telemetry);

  // --- Checkpoint/restore (DESIGN.md section 17) -----------------------------
  //
  // Visit (common/state_io.h) covers the renewal-process state that is *not*
  // in the event queue: per-component RNG streams, down flags, class stats,
  // and the stopped flag. Loading requires an injector constructed with the
  // identical config and component counts (throws on a component-count
  // mismatch) and schedules nothing. The queued failure/repair events are
  // exposed separately via CollectPending so the host can merge them with its
  // own pending events into one id-ordered re-arm list (preserving the global
  // FIFO tie order), then re-schedule each through RearmFailureAt /
  // RearmRepairAt, which reject a component index outside
  // [0, num_components()).
  struct PendingFault {
    Simulator::EventId id = Simulator::kInvalidEvent;  // original event id
    int component = 0;                                 // index into components_
    bool is_repair = false;
    double at = 0.0;  // absolute fire time
  };
  template <class Ar>
  void Visit(Ar& ar);
  void CollectPending(std::vector<PendingFault>& out) const;
  void RearmFailureAt(int component, double at);
  void RearmRepairAt(int component, double at);
  int num_components() const { return static_cast<int>(components_.size()); }

  const ClassStats& shuttle_stats() const { return stats_[0]; }
  const ClassStats& drive_stats() const { return stats_[1]; }
  const ClassStats& rack_stats() const { return stats_[2]; }
  // Media events have no repair side; `repairs` stays 0 for this class.
  const ClassStats& media_stats() const { return stats_[3]; }

 private:
  enum Class { kShuttle = 0, kDrive = 1, kRack = 2, kMedia = 3 };
  static constexpr int kNumClasses = 4;
  struct Component {
    Class cls;
    int id = 0;
    Rng rng{0};
    bool down = false;
    Simulator::EventId pending = Simulator::kInvalidEvent;  // failure event
    double pending_at = 0.0;  // absolute fire time of `pending` (checkpointing)
    Simulator::EventId repair_event = Simulator::kInvalidEvent;
    double repair_at = 0.0;

    // Queued events are re-armed by the host, not serialized here.
    template <class Ar>
    void Visit(Ar& ar) {
      ar(rng, down);
      if constexpr (Ar::kLoading) {
        pending = Simulator::kInvalidEvent;
        repair_event = Simulator::kInvalidEvent;
      }
    }
  };

  const FaultProcess& ProcessOf(Class cls) const;
  bool ClassEnabled(Class cls) const;
  const Distribution* UptimeOf(Class cls) const;
  void ScheduleFailure(Component& component);
  void OnFailure(Component& component);
  void OnRepair(Component& component);
  void NotifyDown(const Component& component);
  void NotifyRepaired(const Component& component);
  Component& RearmTarget(int component_index);

  Simulator& sim_;
  FaultHost& host_;
  FaultConfig config_;
  std::vector<Component> components_;
  ClassStats stats_[kNumClasses];
  bool stopped_ = false;

  Counter* failure_counters_[kNumClasses] = {nullptr, nullptr, nullptr, nullptr};
  Counter* repair_counters_[kNumClasses] = {nullptr, nullptr, nullptr, nullptr};
};

}  // namespace silica

#endif  // SILICA_FAULTS_FAULT_INJECTOR_H_
