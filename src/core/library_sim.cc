#include "core/library_sim.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/state_io.h"
#include "common/units.h"
#include "core/partitioning.h"
#include "ecc/lazy_repair.h"
#include "core/request_scheduler.h"
#include "core/sharded_scheduler.h"
#include "library/motion.h"
#include "library/rail_traffic.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace silica {

namespace {

using Policy = LibraryConfig::Policy;

// Shared no-op tracer (mask 0): every recording call bails on one branch, so the
// instrumentation below never needs a null check on the tracer pointer.
Tracer& NullTracer() {
  static Tracer tracer;
  return tracer;
}

struct PlatterInfo {
  SlotAddress slot;
  double x = 0.0;
  int shelf = 0;
  int partition = 0;
  uint64_t set = 0;         // platter-set id
  bool unavailable = false;
  // Count of independent dynamic-fault causes keeping the platter unreadable
  // (rack outage, captive in a dead drive, stranded on a dead shuttle). Reads
  // route around a dark platter exactly as they do around a static failure.
  int dark = 0;
  double created_at = 0.0;  // for freshly written platters: eject time
  enum class State { kStored, kTargeted, kAtDrive, kAtEject } state = State::kStored;

  template <class Ar>
  void Visit(Ar& ar) {
    ar(slot.rack, slot.shelf, slot.slot, x, shelf, partition, set, unavailable,
       dark, created_at);
    ar.Enum(state, State::kAtEject,
            "Sim checkpoint: platter state out of range");
  }
};

struct ReturnJob {
  uint64_t platter = 0;
  int drive = 0;
  bool verify_slot = false;  // pick from the verify slot instead of the output
  bool scrub = false;        // a scrubbed platter, not a freshly written one

  template <class Ar>
  void Visit(Ar& ar) {
    ar(platter, drive, verify_slot, scrub);
  }
};

struct Shuttle {
  int id = 0;
  int partition = 0;
  double x = 0.0;
  int shelf = 0;
  bool busy = false;
  bool failed = false;  // detected by the controller; leaves service after its job
  double battery = 0.0;  // remaining energy (MotionParams units)
  Rng rng{0};
  int track = 0;  // tracer track for this shuttle's spans

  // What the shuttle is physically doing, so a dynamic breakdown can abort the
  // in-flight motion and roll its side effects back. The two-stage jobs split at
  // the pick: before it the cargo is still at its source, after it the cargo is
  // in the shuttle's grip (and strands with the shuttle).
  enum class Job {
    kNone,
    kFetchGo,      // heading to the platter's slot
    kFetchCarry,   // carrying the platter to a drive
    kReturnGo,     // heading to a drive's output (or verify) station
    kReturnCarry,  // carrying a platter back to its slot
    kVerifyGo,     // heading to the write-eject bay
    kVerifyCarry,  // carrying a written platter to a drive's verify slot
    kScrubGo,      // heading to a stored platter picked for scrubbing
    kScrubCarry,   // carrying a scrub target to a drive's verify slot
    kRecharge,
  };
  Job job = Job::kNone;
  uint64_t job_platter = 0;
  int job_drive = 0;
  ReturnJob job_return;
  Simulator::EventId job_event = Simulator::kInvalidEvent;

  // id and track are fixed at construction; job_event is rebound when the
  // owning descriptor is re-armed.
  template <class Ar>
  void Visit(Ar& ar) {
    ar(partition, x, shelf, busy, failed, battery, rng);
    ar.Enum(job, Job::kRecharge, "Sim checkpoint: shuttle job out of range");
    ar(job_platter, job_drive, job_return);
    if constexpr (Ar::kLoading) {
      job_event = Simulator::kInvalidEvent;
    }
  }
};

// A read drive has platter stations (Section 4: "slots into which platters are
// inserted and removed") plus the co-mounted verification platter: an input station a
// shuttle can pre-load while a session runs, the mounted customer platter, and an
// output station holding the unmounted platter until a shuttle collects it. The
// stations are what let fetches pipeline with read sessions.
struct Drive {
  int id = 0;
  DrivePosition pos;
  double throughput_mbps = 60.0;
  bool input_reserved = false;   // a fetch is dispatched or delivered
  bool input_occupied = false;
  uint64_t input_platter = 0;
  bool mounted = false;
  uint64_t mounted_platter = 0;
  bool output_occupied = false;
  bool output_pending = false;   // unmount finished but output station was full
  uint64_t output_platter = 0;
  bool verifying = true;
  double verify_since = 0.0;
  bool verify_present = true;     // a verification platter is co-mounted
  bool verify_incoming = false;   // a delivery from the eject bay is en route
  bool verified_waiting = false;  // finished platter occupies the verify slot
  uint64_t verify_platter = 0;
  double verify_remaining_s = 0.0;  // infinity in abstract-backlog mode
  Simulator::EventId verify_event = Simulator::kInvalidEvent;
  int served_in_session = 0;
  double read_s = 0.0;
  double verify_s = 0.0;
  double switch_s = 0.0;
  int track = 0;  // tracer track for this drive's spans
  Tracer::SpanHandle verify_span = Tracer::kInvalidSpan;

  // Dynamic-fault state: a down drive is "sealed" — platters inside it are
  // captive (dark) until repair, no new work is routed to it, and an in-flight
  // customer read is aborted and requeued. Short mechanical ops (mount / switch /
  // unmount) that were already underway complete; `resume_pending` remembers that
  // a mounted session must pick back up when the drive returns.
  bool down = false;
  bool resume_pending = false;
  Simulator::EventId read_event = Simulator::kInvalidEvent;  // in-flight read
  ReadRequest inflight;       // valid while read_event is pending
  double read_started = 0.0;  // for refunding unspent read seconds on abort
  double read_cost = 0.0;

  // Background scrub: the verify slot holds a stored platter under a scrub pass
  // (detection read, then an inline-repair phase billed on the verify clock).
  // Customer sessions preempt both phases via the ordinary fast switch.
  bool scrubbing = false;
  bool scrub_repairing = false;
  uint64_t scrub_pending[kNumRepairTiers] = {0, 0, 0, 0};  // detected, by tier

  // id, pos, throughput and track are fixed at construction; the event
  // handles are rebound when their descriptors are re-armed, and spans never
  // cross a checkpoint.
  template <class Ar>
  void Visit(Ar& ar) {
    ar(input_reserved, input_occupied, input_platter, mounted, mounted_platter,
       output_occupied, output_pending, output_platter, verifying,
       verify_since, verify_present, verify_incoming, verified_waiting,
       verify_platter, verify_remaining_s, served_in_session, read_s, verify_s,
       switch_s, down, resume_pending, inflight, read_started, read_cost,
       scrubbing, scrub_repairing, scrub_pending);
    if constexpr (Ar::kLoading) {
      verify_event = Simulator::kInvalidEvent;
      read_event = Simulator::kInvalidEvent;
    }
  }
};

// Fan-in bookkeeping: a request with children (shards of a large file, or recovery
// sub-reads for an unavailable platter) completes when its last child does. `up`
// chains to the grandparent so recovery reads of a shard propagate correctly.
// `failed` poisons the group: if any child is given up on, the root resolves as
// failed rather than completed (but resolves exactly once either way).
struct ParentState {
  double arrival = 0.0;
  int remaining = 0;
  uint64_t up = 0;
  bool failed = false;

  template <class Ar>
  void Visit(Ar& ar) {
    ar(arrival, remaining, up, failed);
  }
};

// Rejects malformed configurations up front with a message naming the
// offending knob, instead of producing undefined behavior (or a crash deep in
// partitioning) downstream. Mirrors SilicaService's ValidateConfig style.
void ValidateLibrarySimConfig(const LibrarySimConfig& config) {
  const LibraryConfig& lib = config.library;
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("LibrarySimConfig: " + what);
  };
  if (lib.num_shuttles < 1) {
    reject("library.num_shuttles must be >= 1 (got " +
           std::to_string(lib.num_shuttles) + ")");
  }
  if (lib.storage_racks < 1 || lib.shelves < 1 || lib.slots_per_shelf < 1) {
    reject("library storage geometry (storage_racks, shelves, slots_per_shelf) "
           "must all be >= 1 (got " + std::to_string(lib.storage_racks) + ", " +
           std::to_string(lib.shelves) + ", " +
           std::to_string(lib.slots_per_shelf) + ")");
  }
  if (lib.read_racks < 1 || lib.drives_per_read_rack < 1) {
    reject("library read geometry (read_racks, drives_per_read_rack) must be "
           ">= 1 (got " + std::to_string(lib.read_racks) + ", " +
           std::to_string(lib.drives_per_read_rack) + ")");
  }
  if (!(lib.steal_threshold_bytes >= 0.0)) {  // also rejects NaN
    reject("library.steal_threshold_bytes must be >= 0 (got " +
           std::to_string(lib.steal_threshold_bytes) + ")");
  }
  if (lib.congestion_detour_shelves < 0) {
    reject("library.congestion_detour_shelves must be >= 0 (got " +
           std::to_string(lib.congestion_detour_shelves) + ")");
  }
  if (!(lib.repartition_interval_s >= 0.0)) {
    reject("library.repartition_interval_s must be >= 0 (got " +
           std::to_string(lib.repartition_interval_s) + ")");
  }
  if (lib.repartition_interval_s > 0.0) {
    if (!(lib.repartition_ewma_alpha > 0.0) || lib.repartition_ewma_alpha > 1.0) {
      reject("library.repartition_ewma_alpha must be in (0, 1] (got " +
             std::to_string(lib.repartition_ewma_alpha) + ")");
    }
    if (!(lib.repartition_lo >= 0.0) || !(lib.repartition_hi > lib.repartition_lo)) {
      reject("library repartition band needs 0 <= repartition_lo < "
             "repartition_hi (got lo=" + std::to_string(lib.repartition_lo) +
             ", hi=" + std::to_string(lib.repartition_hi) + ")");
    }
  }
  if (!(config.write_surge_factor >= 1.0)) {
    reject("write_surge_factor must be >= 1 (got " +
           std::to_string(config.write_surge_factor) + ")");
  }
  if (!(config.write_surge_duration_s >= 0.0)) {
    reject("write_surge_duration_s must be >= 0 (got " +
           std::to_string(config.write_surge_duration_s) + ")");
  }
  if (config.lazy_repair.enabled) {
    if (!config.scrub.enabled) {
      reject("lazy_repair.enabled requires scrub.enabled (detections come from "
             "scrub passes)");
    }
    if (!(config.lazy_repair.bandwidth_bytes_per_s > 0.0)) {
      reject("lazy_repair.bandwidth_bytes_per_s must be > 0 (got " +
             std::to_string(config.lazy_repair.bandwidth_bytes_per_s) + ")");
    }
    if (!(config.lazy_repair.drain_interval_s > 0.0)) {
      reject("lazy_repair.drain_interval_s must be > 0 (got " +
             std::to_string(config.lazy_repair.drain_interval_s) + ")");
    }
  }
}

// The whole simulation state machine. One instance per SimulateLibrary call.
class Sim final : public FaultHost {
 public:
  Sim(const LibrarySimConfig& config, const ReadTrace& trace)
      : config_(config),
        panel_(config.library),
        motion_(config.library.motion),
        rails_(config.library.shelves, panel_.num_segments()),
        rng_(config.seed),
        trace_(trace),
        tel_(config.telemetry),
        tracer_(config.telemetry != nullptr ? &config.telemetry->tracer
                                            : &NullTracer()) {
    SetUpPlatters();
    SetUpControlPlane();
    if (config_.faults.enabled()) {
      // The injector gets its own forked stream and each component forks again
      // from it, so fault schedules depend only on the seed — and a disabled
      // config leaves rng_ (and the whole event order) untouched.
      injector_ = std::make_unique<FaultInjector>(
          sim_, *this, config_.faults, rng_.Fork(0xFA17D00D),
          static_cast<int>(shuttles_.size()), static_cast<int>(drives_.size()),
          config_.library.storage_racks, static_cast<int>(platters_.size()));
      rack_darkened_.resize(static_cast<size_t>(config_.library.storage_racks));
    }
    if (config_.scrub.enabled || config_.faults.aging.enabled()) {
      // Health tracking plus per-platter severity streams. Fork() is const, so
      // a run with scrub and aging disabled leaves rng_ — and with it the whole
      // event order — bit-identical to a build without the subsystem.
      scrub_.Init(config_.scrub, platters_.size());
      aging_rngs_.reserve(platters_.size());
      for (uint64_t p = 0; p < platters_.size(); ++p) {
        aging_rngs_.push_back(rng_.Fork(0xA9E50000ull + p));
      }
    }
    SetUpTelemetry();
    lazy_.Configure(config_.lazy_repair, 0.0);
  }

  LibrarySimResult Run() { return Run(-1.0, nullptr); }
  // Capture flavor: snapshots the full state into `checkpoint_out` once
  // simulated time reaches `checkpoint_at` (ignored when null), then runs to
  // completion as usual.
  LibrarySimResult Run(double checkpoint_at, std::vector<uint8_t>* checkpoint_out);

  // ---- stepped interface (federation; see LibraryTwin) ----
  // Run() is Prologue + sim_.Run(forever) + Finish; the stepped form slices
  // the middle so a federation driver can inject messages between slices.
  void Prologue();
  uint64_t RunUntil(double until) { return sim_.Run(until); }
  double NowTime() const { return sim_.Now(); }
  double NextEventTime() { return sim_.PeekNextTime(); }
  bool EngineIdle() const { return sim_.Idle(); }
  bool WorkloadLive() const { return WorkloadUnresolved(); }
  bool ExplicitWrites() const { return explicit_writes(); }
  void InjectArrival(const ReadRequest& request, double when);
  void InjectReplicatedPlatter(double when);
  LibrarySimResult Finish();
  // Capture mode must be on from construction so every event scheduled before
  // the snapshot carries a serializable descriptor.
  void EnableCapture() { track_ = true; }
  // Checkpoint field list (common/state_io.h): the config fingerprint, the
  // engine clock and pending-event queue, then every member in a fixed order.
  // Loading onto a freshly constructed twin makes the next Run() skip the
  // prologue and replay the remainder byte-identically.
  template <class Ar>
  void Visit(Ar& ar);

 private:
  // ---- event descriptors (checkpoint/restore) ----
  // Every continuation the twin schedules is expressible as one of these
  // descriptors, so a snapshot can serialize the calendar queue and a restore
  // can re-arm it. The payload fields a/b/c are kind-specific (see Fire);
  // spans are runtime-only handles and never serialized, which is why capture
  // requires tracing disabled.
  enum EventKind : uint32_t {
    kEvFetchPick, kEvFetchPlace,
    kEvReturnPick, kEvReturnStore,
    kEvRecharge,
    kEvMountDone, kEvReadDone, kEvUnmountDone, kEvSwitchBack,
    kEvVerifyDone, kEvProduceWrite,
    kEvVerifyDeliveryPick, kEvVerifyDeliveryPlace,
    kEvScrubPick, kEvScrubPlace,
    kEvRebuildRetry, kEvRebuildWrite,
    kEvStrandRecovery, kEvRetryProbe,
    kEvRepartitionTick, kEvArrival,
    kEvScriptedShuttleFail, kEvBlackoutStart, kEvBlackoutEnd,
    kEvLazyDrain,
    // Federation-injected work. Not serializable (injection is rejected in
    // capture mode), so these kinds never appear in a checkpoint, and
    // restore rejects a snapshot that names one.
    kEvFederatedArrival, kEvFederatedWrite,
  };
  struct PendingEvent {
    uint32_t kind = 0;
    int32_t a = 0;   // shuttle / drive / small scalar
    uint64_t b = 0;  // platter / trace index
    uint64_t c = 0;  // drive or packed ReturnJob
    Tracer::SpanHandle span = Tracer::kInvalidSpan;  // runtime-only
  };
  Simulator::EventId Arm(double delay, const PendingEvent& e) {
    return ArmAt(sim_.Now() + delay, e);
  }
  Simulator::EventId ArmAt(double when, const PendingEvent& e) {
    const Simulator::EventId id = sim_.ScheduleAt(when, [this, e] { Fire(e); });
    if (track_) {
      tracked_[id] = e;
    }
    return id;
  }
  void Fire(const PendingEvent& e);
  static uint64_t PackReturnJob(const ReturnJob& job) {
    return static_cast<uint64_t>(static_cast<uint32_t>(job.drive)) |
           (static_cast<uint64_t>(job.verify_slot ? 1 : 0) << 32) |
           (static_cast<uint64_t>(job.scrub ? 1 : 0) << 33);
  }
  static ReturnJob UnpackReturnJob(const PendingEvent& e) {
    ReturnJob job;
    job.platter = e.b;
    job.drive = static_cast<int>(static_cast<uint32_t>(e.c));
    job.verify_slot = ((e.c >> 32) & 1) != 0;
    job.scrub = ((e.c >> 33) & 1) != 0;
    return job;
  }

  // ---- checkpoint/restore ----
  // The engine clock and calendar queue: the one part of a snapshot that is
  // collected on save and re-armed on load instead of living in members.
  struct SavedEvent {
    double at = 0.0;
    uint8_t source = 0;  // 0 = library descriptor, 1 = fault injector
    PendingEvent e;
    int32_t component = 0;
    bool is_repair = false;

    template <class Ar>
    void Visit(Ar& ar) {
      ar(at, source);
      if (source == 0) {
        ar(e.kind, e.a, e.b, e.c);
      } else if (source == 1) {
        ar(component, is_repair);
      } else {
        throw std::runtime_error(
            "Sim checkpoint: unknown pending-event source");
      }
    }
  };
  struct EngineState {
    double now = 0.0;
    uint64_t executed = 0;
    uint64_t cancelled = 0;
    uint64_t scheduled = 0;
    std::vector<SavedEvent> events;  // in original event-id order

    template <class Ar>
    void Visit(Ar& ar) {
      ar(now, executed, cancelled, scheduled, events);
    }
  };
  EngineState CaptureEngine();
  void ValidateRestoredEvent(const SavedEvent& s) const;
  void RearmEngine(const EngineState& engine);
  // ---- setup ----
  void SetUpPlatters();
  void SetUpControlPlane();
  void SetUpTelemetry();
  void PublishSummaryMetrics();

  // ---- arrivals ----
  void OnArrival(const ReadRequest& request);
  // Amplifies a read of an unreadable platter into sub-reads of its platter set
  // (cross-platter recovery, Section 5). Returns false when no candidate platter
  // is currently readable (possible only under dynamic faults).
  bool FanOutRecovery(const ReadRequest& request);

  // ---- dynamic faults (FaultHost) ----
  void OnShuttleDown(int shuttle) override;
  void OnShuttleRepaired(int shuttle) override;
  void OnDriveDown(int drive) override;
  void OnDriveRepaired(int drive) override;
  void OnRackDown(int rack) override;
  void OnRackRepaired(int rack) override;
  void OnPlatterAged(int platter) override;

  // ---- background scrub + repair escalation ----
  // Scrub work is dispatched only while the customer workload is unresolved so
  // the renewal loop (pass complete -> dispatch next pass) cannot keep the
  // event queue non-empty forever.
  bool ScrubAllowed() const {
    return config_.scrub.enabled && scrub_.initialized() &&
           result_.requests_completed + result_.requests_failed <
               result_.requests_total;
  }
  double SectorSeconds(const Drive& drive) const {
    return StreamSeconds(config_.media.raw_bytes_per_track(),
                         drive.throughput_mbps) /
           static_cast<double>(config_.media.sectors_per_track());
  }
  // A pass streams a deterministic sample of the platter's tracks (full-platter
  // verification at production scale costs tens of drive-hours per platter).
  double ScrubSeconds(const Drive& drive) const {
    return VerifySeconds(drive) * config_.scrub.track_sample_fraction;
  }
  bool TryDispatchScrubWork(Shuttle& shuttle, int partition);
  void StartScrubFetch(Shuttle& shuttle, uint64_t platter, int drive);
  // Loads the platter into the drive's verify slot and starts the detection
  // read on the verify clock (paused while the drive is down or mounted).
  void BeginScrubPass(int drive, uint64_t platter);
  void OnScrubPassComplete(int drive);
  void ApplyScrubRepairs(int drive);
  void FinishScrub(int drive);
  // Tier-3 escalation: rebuild the platter from its 16+3 set. Peer reads are
  // real recovery fan-out traffic; reads of the platter degrade (amplify) while
  // the rebuild is in flight; rebuilds that cannot gather I_p readable peers
  // back off exponentially and are abandoned — data loss — after the budget.
  void StartRebuild(uint64_t platter, uint64_t sectors);
  void TryRebuildReads(uint64_t platter);
  void OnRebuildReadsDone(uint64_t platter, bool failed);
  void CompleteRebuild(uint64_t platter);
  void FailRebuild(uint64_t platter);

  // Where an aborted carry's cargo ends up once an operator recovers it.
  enum class StrandKind { kStore, kStoreVerified, kEject };
  void AbortShuttleJob(Shuttle& shuttle);
  void StrandPlatter(uint64_t platter, StrandKind kind);
  // Enumerates every platter physically inside / queued against a drive: the
  // input station, the mounted platter, a pending (stuck) unmount, the verify
  // slot (explicit-write mode only — the abstract backlog is not a real
  // platter), and queued return jobs. Platters whose return job is already in a
  // shuttle's grip are deliberately excluded: they escape a failing drive.
  template <typename Fn>
  void ForEachPlatterInDrive(const Drive& drive, Fn&& fn) {
    if (drive.input_occupied) {
      fn(drive.input_platter);
    }
    if (drive.mounted) {
      fn(drive.mounted_platter);
    }
    if (drive.output_pending) {
      fn(drive.output_platter);
    }
    if ((explicit_writes() || drive.scrubbing) && drive.verify_present) {
      fn(drive.verify_platter);
    }
    for (const auto& queue : returns_) {
      for (const auto& job : queue) {
        if (job.drive == drive.id) {
          fn(job.platter);
        }
      }
    }
  }
  // Degraded-mode retry policy: a dark platter with queued reads is probed with
  // exponential backoff; when the backoff budget runs out its queue converts to
  // recovery fan-out (the same path static unavailability takes at arrival).
  void EnsureRetry(uint64_t platter);
  void ScheduleRetryProbe(uint64_t platter, int attempt);
  void OnRetryProbe(uint64_t platter, int attempt);
  void ConvertToRecovery(uint64_t platter);
  // Stops the renewal processes once the workload is fully resolved, so open-
  // ended fault injection cannot keep the event queue non-empty forever.
  void MaybeStopInjecting();

  // ---- dispatch ----
  void TryDispatchAll();
  void TryDispatchPartition(int p);
  void TryDispatchGlobalShuttles();  // SP
  void TryDispatchDrives();          // NS
  bool TryDispatchReturns(int p);

  // ---- control-plane indices (sharded dispatch) ----
  // Recomputes the partition's idle-shuttle membership in ready_partitions_.
  void RecountPartitionIdle(int p);
  // Call after any busy / failed flip of `shuttle`.
  void NoteShuttleAvailability(const Shuttle& shuttle) {
    if (partitioner_ != nullptr) {
      RecountPartitionIdle(shuttle.partition);
    }
  }
  // Call after any shuttle-failed or drive-down flip touching partition `p`.
  void RefreshPartitionDistress(int p);
  // Scripted shuttle loss (config.shuttle_failures / fleet_loss_fraction).
  void ApplyScriptedShuttleFailure(int id);

  // ---- dynamic repartitioning ----
  void ScheduleRepartitionTick();
  void RepartitionTick();
  // Re-derives every platter's partition from the (shifted) rectangles and
  // migrates queued requests between shards. Deterministic: a pure function of
  // the partitioner state, applied in platter-id order.
  void MigratePlatterPartitions();
  // True while the run still has customer or write-pipeline work outstanding
  // (used to stop self-rescheduling subsystems so the event queue can drain).
  bool WorkloadUnresolved() const;
  // Write-drive eject rate, scaled by the surge factor inside the surge window.
  double EffectiveWriteRate() const;

  // ---- congestion-aware routing ----
  // Lane to traverse on for a move to (x, shelf): the target shelf itself, or —
  // with congestion_aware_routing — the cheapest lane within the detour radius
  // (projected queueing wait + expected time of the extra crabs).
  int PickTravelLane(const Shuttle& shuttle, double x, int shelf);

  // ---- physical jobs ----
  struct Leg {
    double duration = 0.0;
    double expected = 0.0;
    double congestion = 0.0;
    int stops = 0;
    int crabs = 0;
    double distance = 0.0;
  };
  Leg Travel(Shuttle& shuttle, double x, int shelf);
  void RecordLeg(const Leg& leg);

  void StartFetch(Shuttle& shuttle, uint64_t platter, int drive);
  void StartReturn(Shuttle& shuttle, const ReturnJob& job);
  // Frees the shuttle, detouring via the charging dock when the battery is low
  // (the controller "monitors the battery level of shuttles", Section 4.1).
  void OnShuttleJobDone(Shuttle& shuttle);
  // Multi-stage job continuations, fired via descriptors (see EventKind).
  void FetchPick(Shuttle& shuttle, uint64_t platter, int drive,
                 Tracer::SpanHandle span);
  void FetchPlace(Shuttle& shuttle, uint64_t platter, int drive,
                  Tracer::SpanHandle span);
  void ReturnPick(Shuttle& shuttle, const ReturnJob& job, Tracer::SpanHandle span);
  void ReturnStore(Shuttle& shuttle, const ReturnJob& job, Tracer::SpanHandle span);
  void RechargeDone(Shuttle& shuttle);
  void VerifyDeliveryPick(Shuttle& shuttle, uint64_t platter, int drive,
                          Tracer::SpanHandle span);
  void VerifyDeliveryPlace(Shuttle& shuttle, uint64_t platter, int drive,
                           Tracer::SpanHandle span);
  void ScrubPick(Shuttle& shuttle, uint64_t platter, int drive,
                 Tracer::SpanHandle span);
  void ScrubPlace(Shuttle& shuttle, uint64_t platter, int drive,
                  Tracer::SpanHandle span);
  void OnReadDone(int drive, uint64_t platter);
  void OnUnmountDone(int drive, uint64_t platter);
  void OnSwitchBack(int drive);
  void StrandRecovered(uint64_t platter, StrandKind kind);
  void OnBlackout(bool down);

  // ---- lazy bandwidth-budgeted repair (DESIGN.md section 17) ----
  // Failures (lost or rebuilding members) across `platter`'s erasure set; the
  // admission urgency is the redundancy the set has left.
  int SetFailures(uint64_t platter);
  void AdmitLazyRepair(uint64_t platter, int tier, uint64_t sectors, int drive);
  void ScheduleLazyDrain();
  void LazyDrainTick();
  void CommitLazyRepair(const LazyRepairEntry& entry);
  // Queued entries for a lost (or wholesale-rebuilt) platter leave the queue;
  // the caller decides whether they count repaired or unrecoverable.
  void EvictLazyRepairs(uint64_t platter, bool platter_lost);

  // ---- drive state machine ----
  void DeliverToDrive(int drive, uint64_t platter);
  void TryStartSession(int drive);
  // Verification clock: runs whenever the drive is otherwise idle and a verify
  // platter is present; customer sessions pause it (fast switching).
  void StartVerifyClock(int drive);
  void PauseVerifyClock(int drive);
  void OnVerifyComplete(int drive);
  // Write pipeline (explicit mode): the write drive ejects platters that must be
  // fully read back before their staged data is released (Section 3.1).
  void ProduceWrittenPlatter();
  void ProduceOnePlatter();
  bool TryDispatchVerifyWork(Shuttle& shuttle, int partition);
  void StartVerifyDelivery(Shuttle& shuttle, uint64_t platter, int drive);
  double VerifySeconds(const Drive& drive) const {
    return StreamSeconds(static_cast<uint64_t>(config_.media.tracks_per_platter()) *
                             config_.media.raw_bytes_per_track(),
                         drive.throughput_mbps);
  }
  bool explicit_writes() const { return config_.write_platters_per_hour > 0.0; }
  void ServeNext(int drive, uint64_t platter);
  void EndSession(int drive, uint64_t platter);
  void FinishUnmount(int drive);
  double SwitchCost() const {
    // Fast switching flips between the co-mounted verify and customer platters in
    // 1 s; without it the drive swaps platters through a full unmount+mount.
    return config_.library.fast_switching ? motion_.FastSwitchTime()
                                          : 2.0 * motion_.MountTime();
  }

  // ---- helpers ----
  int SchedulerOf(uint64_t platter) const {
    return partitioned() ? platters_[platter].partition : 0;
  }
  bool partitioned() const { return config_.library.policy == Policy::kPartitioned; }
  // Readable at all: not statically failed and not dark from a dynamic fault.
  bool Servable(uint64_t platter) const {
    const auto& p = platters_[platter];
    return !p.unavailable && p.dark == 0;
  }
  bool Accessible(uint64_t platter) const {
    const auto& p = platters_[platter];
    return p.state == PlatterInfo::State::kStored && !p.unavailable && p.dark == 0;
  }
  // Called after any mutation that can make `platter` accessible again (return
  // to a storage slot, dark bit released). Such transitions are the only way a
  // shard whose SelectPlatter came back empty can start yielding work without
  // its queue changing, and only the shard queueing this platter is affected,
  // so exactly that one scan memo drops. Queue mutations clear their own
  // shard's memo inside the router.
  void NoteAccessibilityImproved(uint64_t platter) {
    sched_.ClearScanMemo(SchedulerOf(platter));
  }
  int PickDriveNear(const std::vector<int>& candidates, double x) const;
  // True when every shuttle of the partition has failed: the controller lets
  // neighbours serve its queue (steals bypass the threshold) and its returns are
  // handled by any idle shuttle.
  bool PartitionOrphaned(int p) const {
    for (int s : partition_shuttles_[static_cast<size_t>(p)]) {
      if (!shuttles_[static_cast<size_t>(s)].failed) {
        return false;
      }
    }
    return true;
  }
  // True when every read drive of the partition is down: neighbours may steal
  // its queued work unconditionally, like an orphaned (shuttle-less) partition.
  bool PartitionDrivesDown(int p) const {
    const auto& drives = partitioner_->partitions()[static_cast<size_t>(p)].drives;
    for (int d : drives) {
      if (!drives_[static_cast<size_t>(d)].down) {
        return false;
      }
    }
    return !drives.empty();
  }
  double TrackReadSeconds(const Drive& drive) const {
    return StreamSeconds(config_.media.raw_bytes_per_track(),
                         drive.throughput_mbps);
  }
  uint64_t TracksFor(uint64_t bytes) const {
    const uint64_t per_track = config_.media.payload_bytes_per_track();
    return std::max<uint64_t>(1, (bytes + per_track - 1) / per_track);
  }
  void RecordCompletion(const ReadRequest& request);
  void RecordFailure(const ReadRequest& request);
  void ResolveRequest(const ReadRequest& request, bool failed);
  void NotifyFederatedResolve(uint64_t root_id, bool failed);

  // ---- members ----
  LibrarySimConfig config_;
  Panel panel_;
  MotionModel motion_;
  RailTraffic rails_;
  Rng rng_;
  const ReadTrace& trace_;
  Simulator sim_;

  std::vector<PlatterInfo> platters_;
  std::vector<Shuttle> shuttles_;
  std::vector<Drive> drives_;
  std::unique_ptr<Partitioner> partitioner_;
  // Per-partition scheduler shards behind the router (one shard for SP / NS).
  // Every queue mutation goes through it so its donor heap stays current.
  ShardedScheduler sched_;
  std::vector<std::vector<int>> partition_shuttles_;
  std::vector<std::deque<ReturnJob>> returns_;
  // Total jobs across all returns_ queues, so a dispatch sweep can rule out
  // return work everywhere with one load instead of touching every deque.
  uint64_t returns_pending_ = 0;

  // Idle-partition index: partitions with at least one idle (not busy, not
  // failed) shuttle. TryDispatchAll visits only these plus the orphaned set —
  // provably the same actions as the replaced full 0..P-1 scan, because within
  // one dispatch sweep `busy` only flips idle -> busy, and a partition with
  // live-but-busy shuttles dispatches nothing. Maintained at every busy /
  // failed transition via NoteShuttleAvailability / RefreshPartitionDistress.
  // Stored as sorted flat vectors: they are iterated on every dispatch sweep
  // (hot at hundreds of shuttles) but mutated only on busy / orphan flips, so
  // contiguous traversal beats a node-based set by a wide margin.
  std::vector<int> ready_partitions_;
  std::vector<int> orphaned_partitions_;
  static void FlatSetInsert(std::vector<int>& v, int x) {
    const auto it = std::lower_bound(v.begin(), v.end(), x);
    if (it == v.end() || *it != x) {
      v.insert(it, x);
    }
  }
  static void FlatSetErase(std::vector<int>& v, int x) {
    const auto it = std::lower_bound(v.begin(), v.end(), x);
    if (it != v.end() && *it == x) {
      v.erase(it);
    }
  }
  // Distress flags: partition_distressed_[p] == PartitionOrphaned(p) ||
  // PartitionDrivesDown(p), refreshed at every shuttle-failed / drive-down
  // flip. While the count is zero the steal path can stop at the first donor
  // below the byte threshold instead of enumerating every queue.
  std::vector<uint8_t> partition_distressed_;
  int distressed_count_ = 0;
  std::vector<int> dispatch_scratch_;  // snapshot of partitions to visit
  std::vector<std::vector<int>> drive_partitions_;  // drive -> owning partitions
  // Drive-availability index for the partitioned sweep: a drive counts as
  // available exactly when PickDriveNear could return it (alive, input slot
  // free), and partition_avail_drives_[p] tallies the partition's available
  // drives. A partition at zero cannot dispatch a fetch no matter what its
  // queues hold — TryDispatchPartition returns before selecting — so the
  // sweep skips it outright instead of re-proving the blockage through
  // HomeOf + a candidate scan on every event of a saturated fleet.
  std::vector<uint8_t> drive_avail_;
  std::vector<int> partition_avail_drives_;
  void NoteDriveAvailability(int d) {
    if (partition_avail_drives_.empty()) {
      return;  // SP / NS run without the partitioned drive index
    }
    const Drive& drive = drives_[static_cast<size_t>(d)];
    const uint8_t avail = (!drive.down && !drive.input_reserved) ? 1 : 0;
    if (drive_avail_[static_cast<size_t>(d)] == avail) {
      return;
    }
    drive_avail_[static_cast<size_t>(d)] = avail;
    const int delta = avail != 0 ? 1 : -1;
    for (int p : drive_partitions_[static_cast<size_t>(d)]) {
      partition_avail_drives_[static_cast<size_t>(p)] += delta;
    }
  }

  // Per-sweep steal-scan memo. A failed donor scan is a pure read whose result
  // depends only on the cut and on global queue/platter state: if a scan at
  // cut C found no stealable target, any scan at cut' >= C fails too (fewer
  // donors qualify, the per-donor accessibility test is thief-independent,
  // and the thief's own queue was already rejected by its SelectPlatter).
  // `steal_noop_cut_` records the smallest failed cut so the O(ready-
  // partitions) idle fleets don't repeat the identical scan. It lives across
  // sweeps: any dispatch action resets it directly, and the sweep prologue
  // drops it whenever the router's mutation epoch moved or a distress flag
  // flipped (the remaining inputs a donor scan reads).
  static constexpr uint64_t kNoFailedStealScan =
      std::numeric_limits<uint64_t>::max();
  uint64_t steal_noop_cut_ = kNoFailedStealScan;
  // Router mutation epoch at which steal_noop_cut_ was last known valid; the
  // sweep drops the memo when the epochs diverge (see TryDispatchAll).
  uint64_t steal_memo_epoch_ = 0;
  void InvalidateStealScanMemo() { steal_noop_cut_ = kNoFailedStealScan; }

  // Dynamic repartitioning policy state: queued-bytes EWMA per partition.
  std::vector<double> partition_ewma_;
  std::unordered_map<uint64_t, ParentState> parents_;
  std::deque<uint64_t> eject_queue_;  // freshly written platters at the eject bay
  uint64_t next_sub_id_ = 1ull << 62;

  // Federation-injected requests, referenced by index from kEvFederatedArrival
  // descriptors (the trace itself is immutable and shared). Empty for
  // standalone runs.
  std::vector<ReadRequest> fed_requests_;

  // Dynamic fault injection. Null when config_.faults is disabled, in which case
  // none of the degraded-mode paths below can fire and the event order is
  // bit-identical to a build without the subsystem.
  std::unique_ptr<FaultInjector> injector_;
  std::vector<std::vector<uint64_t>> rack_darkened_;  // per rack: snapshot of
                                                      // platters its outage darkened
  std::unordered_set<uint64_t> retry_pending_;  // platters with a probe scheduled

  // Background scrub + repair. scrub_ is initialized (and aging_rngs_ filled)
  // only when scrub or media aging is configured; otherwise every path below is
  // dead and the event order matches a build without the subsystem.
  ScrubScheduler scrub_;
  std::vector<Rng> aging_rngs_;  // per-platter damage-severity streams
  struct Rebuild {
    uint64_t sectors = 0;  // tier-3 damage being rebuilt
    int attempt = 0;       // backoff probes spent waiting for set peers

    template <class Ar>
    void Visit(Ar& ar) {
      ar(sectors, attempt);
    }
  };
  std::unordered_map<uint64_t, Rebuild> rebuilds_;  // by platter
  // Synthetic fan-in parents for rebuild peer reads, resolved out-of-band in
  // ResolveRequest (a rebuild is maintenance traffic, not a customer request).
  std::unordered_map<uint64_t, uint64_t> rebuild_parent_of_;  // parent id -> platter

  // Telemetry. tracer_ is never null (a shared disabled tracer stands in when no
  // sink is attached); metric handles are null without telemetry and resolved once
  // in SetUpTelemetry so hot paths pay a branch + add.
  Telemetry* tel_ = nullptr;
  Tracer* tracer_ = nullptr;
  int sched_track_ = 0;
  int pipeline_track_ = 0;
  int faults_track_ = 0;
  int scrub_track_ = 0;
  Counter* c_steals_ = nullptr;
  Counter* c_recharges_ = nullptr;
  Counter* c_recovery_reads_ = nullptr;
  Counter* c_completed_ = nullptr;
  Counter* c_travels_ = nullptr;
  Counter* c_platter_ops_ = nullptr;
  Counter* c_platters_written_ = nullptr;
  Counter* c_aborts_ = nullptr;
  Counter* c_dark_retries_ = nullptr;
  Counter* c_converted_ = nullptr;
  Counter* c_req_failed_ = nullptr;
  Counter* c_stranded_ = nullptr;
  Counter* c_scrub_passes_ = nullptr;
  Counter* c_scrub_detections_ = nullptr;
  Counter* c_repair_sectors_[kNumRepairTiers] = {nullptr, nullptr, nullptr, nullptr};
  Counter* c_repair_unrecoverable_ = nullptr;
  Counter* c_rebuild_reads_ = nullptr;
  Histogram* h_completion_ = nullptr;
  Histogram* h_travel_ = nullptr;
  Histogram* h_queue_wait_ = nullptr;
  Histogram* h_verify_turnaround_ = nullptr;

  // Lazy bandwidth-budgeted repair. Configured from config_.lazy_repair; every
  // path is dead (and the event order untouched) when disabled.
  LazyRepairQueue lazy_;
  bool lazy_drain_scheduled_ = false;

  // Checkpoint/restore. In capture mode every armed event's descriptor is
  // recorded in tracked_ (entries are not reaped when events fire — capture
  // runs are short, and the map is reconciled against the live queue at
  // snapshot time). restored_ makes Run() skip the prologue.
  bool track_ = false;
  std::unordered_map<Simulator::EventId, PendingEvent> tracked_;
  bool restored_ = false;

  LibrarySimResult result_;
};

void Sim::SetUpPlatters() {
  const auto& lib = config_.library;
  const uint64_t info = config_.num_info_platters;
  const uint64_t sets =
      (info + static_cast<uint64_t>(config_.platter_set_info) - 1) /
      static_cast<uint64_t>(config_.platter_set_info);
  const uint64_t total =
      info + sets * static_cast<uint64_t>(config_.platter_set_redundancy);
  if (total > static_cast<uint64_t>(lib.storage_slots())) {
    throw std::invalid_argument("Sim: more platters than storage slots");
  }

  platters_.resize(total);
  // Spread platters evenly across racks and shelves (uniform placement, matching
  // the methodology of Section 7.2; blast-zone-aware placement is exercised by the
  // layout module, not needed for the performance experiments).
  for (uint64_t i = 0; i < total; ++i) {
    PlatterInfo& p = platters_[i];
    p.slot.rack = static_cast<int>(i % static_cast<uint64_t>(lib.storage_racks));
    p.slot.shelf = static_cast<int>((i / static_cast<uint64_t>(lib.storage_racks)) %
                                    static_cast<uint64_t>(lib.shelves));
    p.slot.slot = static_cast<int>(
        (i / static_cast<uint64_t>(lib.storage_racks * lib.shelves)) %
        static_cast<uint64_t>(lib.slots_per_shelf));
    p.x = panel_.SlotX(p.slot);
    p.shelf = p.slot.shelf;
    p.set = i < info ? i / static_cast<uint64_t>(config_.platter_set_info)
                     : (i - info) / static_cast<uint64_t>(config_.platter_set_redundancy);
  }

  // Mark platters unavailable, rerolling so no set loses more than R platters
  // (the blast-zone placement invariant guarantees this in a real deployment).
  if (config_.unavailable_fraction > 0.0) {
    Rng fail_rng = rng_.Fork(0xFA11);
    std::unordered_map<uint64_t, int> down_per_set;
    for (auto& p : platters_) {
      if (fail_rng.Bernoulli(config_.unavailable_fraction) &&
          down_per_set[p.set] < config_.platter_set_redundancy) {
        p.unavailable = true;
        ++down_per_set[p.set];
      }
    }
  }
}

void Sim::SetUpControlPlane() {
  const auto& lib = config_.library;

  drives_.resize(static_cast<size_t>(lib.num_read_drives()));
  for (int d = 0; d < lib.num_read_drives(); ++d) {
    Drive& drive = drives_[static_cast<size_t>(d)];
    drive.id = d;
    drive.pos = panel_.DrivePositionOf(d);
    drive.verify_since = 0.0;
    drive.throughput_mbps =
        d < static_cast<int>(lib.drive_throughputs_mbps.size())
            ? lib.drive_throughputs_mbps[static_cast<size_t>(d)]
            : lib.drive_throughput_mbps;
    if (explicit_writes()) {
      // The verify backlog is modeled explicitly: drives start empty and wait
      // for written platters to arrive from the eject bay.
      drive.verify_present = false;
      drive.verifying = false;
    } else if (config_.scrub.enabled) {
      // Scrub mode drops the abstract always-mounted backlog: verify slots are
      // fed with real stored platters by the scrub scheduler instead.
      drive.verify_present = false;
      drive.verifying = false;
    } else {
      drive.verify_remaining_s = Simulator::kForever;
    }
  }

  if (config_.library.policy == Policy::kNoShuttles) {
    sched_.Init(1, platters_.size());
    returns_.resize(1);
    return;
  }

  shuttles_.resize(static_cast<size_t>(lib.num_shuttles));
  if (partitioned()) {
    // One partition per shuttle up to the drive count; beyond that (the paper
    // allows up to two shuttles per read drive) shuttles double up per partition.
    const int num_partitions = std::min(lib.num_shuttles, lib.num_read_drives());
    partitioner_ = std::make_unique<Partitioner>(panel_, num_partitions);
    sched_.Init(partitioner_->size(), platters_.size());
    returns_.resize(static_cast<size_t>(partitioner_->size()));
    partition_shuttles_.resize(static_cast<size_t>(partitioner_->size()));
    partition_distressed_.assign(static_cast<size_t>(partitioner_->size()), 0);
    partition_ewma_.assign(static_cast<size_t>(partitioner_->size()), 0.0);
    drive_partitions_.assign(drives_.size(), {});
    for (const auto& p : partitioner_->partitions()) {
      for (int d : p.drives) {
        drive_partitions_[static_cast<size_t>(d)].push_back(p.index);
      }
    }
    drive_avail_.assign(drives_.size(), 0);
    partition_avail_drives_.assign(static_cast<size_t>(partitioner_->size()), 0);
    for (size_t d = 0; d < drives_.size(); ++d) {
      if (!drives_[d].down && !drives_[d].input_reserved) {
        drive_avail_[d] = 1;
        for (int p : drive_partitions_[d]) {
          ++partition_avail_drives_[static_cast<size_t>(p)];
        }
      }
    }
    for (auto& p : platters_) {
      p.partition = partitioner_->PartitionOfSlot(p.x, p.shelf);
    }
    for (int s = 0; s < lib.num_shuttles; ++s) {
      Shuttle& shuttle = shuttles_[static_cast<size_t>(s)];
      shuttle.id = s;
      shuttle.partition = s % num_partitions;
      partition_shuttles_[static_cast<size_t>(shuttle.partition)].push_back(s);
      const auto home = partitioner_->HomeOf(shuttle.partition);
      shuttle.x = home.x;
      shuttle.shelf = home.shelf;
      shuttle.battery = lib.shuttle_battery_capacity;
      shuttle.rng = rng_.Fork(0x5105 + static_cast<uint64_t>(s));
    }
    for (int p = 0; p < partitioner_->size(); ++p) {
      RecountPartitionIdle(p);
      RefreshPartitionDistress(p);
    }
  } else {  // SP
    sched_.Init(1, platters_.size());
    returns_.resize(1);
    for (int s = 0; s < lib.num_shuttles; ++s) {
      Shuttle& shuttle = shuttles_[static_cast<size_t>(s)];
      shuttle.id = s;
      shuttle.partition = 0;
      // Park initial SP shuttles spread across the storage span.
      shuttle.x = panel_.StorageBeginX() +
                  (s + 0.5) * (panel_.StorageEndX() - panel_.StorageBeginX()) /
                      lib.num_shuttles;
      shuttle.shelf = (s * 7) % lib.shelves;
      shuttle.battery = lib.shuttle_battery_capacity;
      shuttle.rng = rng_.Fork(0x5105 + static_cast<uint64_t>(s));
    }
  }
}

void Sim::RecountPartitionIdle(int p) {
  int idle = 0;
  for (int s : partition_shuttles_[static_cast<size_t>(p)]) {
    const Shuttle& shuttle = shuttles_[static_cast<size_t>(s)];
    if (!shuttle.busy && !shuttle.failed) {
      ++idle;
    }
  }
  if (idle > 0) {
    FlatSetInsert(ready_partitions_, p);
  } else {
    FlatSetErase(ready_partitions_, p);
  }
}

void Sim::RefreshPartitionDistress(int p) {
  if (partitioner_ == nullptr) {
    return;
  }
  const bool orphaned = PartitionOrphaned(p);
  if (orphaned) {
    FlatSetInsert(orphaned_partitions_, p);
  } else {
    FlatSetErase(orphaned_partitions_, p);
  }
  const bool distressed = orphaned || PartitionDrivesDown(p);
  if (distressed != (partition_distressed_[static_cast<size_t>(p)] != 0)) {
    partition_distressed_[static_cast<size_t>(p)] = distressed ? 1 : 0;
    distressed_count_ += distressed ? 1 : -1;
    // Distress widens the steal-donor set (distressed partitions are
    // stealable below the threshold), so a cached dry scan no longer holds.
    InvalidateStealScanMemo();
  }
}

void Sim::SetUpTelemetry() {
  if (tel_ == nullptr) {
    return;
  }
  sim_.SetTelemetry(tel_);
  rails_.SetTelemetry(tel_);
  sched_.SetTelemetry(tel_);

  MetricsRegistry& metrics = tel_->metrics;
  c_steals_ = &metrics.GetCounter("library_work_steals_total");
  c_recharges_ = &metrics.GetCounter("library_shuttle_recharges_total");
  c_recovery_reads_ = &metrics.GetCounter("library_recovery_reads_total");
  c_completed_ = &metrics.GetCounter("library_requests_completed_total");
  c_travels_ = &metrics.GetCounter("library_shuttle_travels_total");
  c_platter_ops_ = &metrics.GetCounter("library_platter_operations_total");
  c_platters_written_ = &metrics.GetCounter("library_platters_written_total");
  h_completion_ = &metrics.GetHistogram("library_completion_seconds");
  h_travel_ = &metrics.GetHistogram("library_travel_seconds");
  h_queue_wait_ = &metrics.GetHistogram("library_queue_wait_seconds");
  h_verify_turnaround_ = &metrics.GetHistogram("library_verify_turnaround_seconds");

  // Fault metrics only exist when injection is configured, so runs without
  // faults export exactly the same registry as before the subsystem existed.
  if (injector_ != nullptr) {
    injector_->SetTelemetry(tel_);
    c_aborts_ = &metrics.GetCounter("fault_shuttle_job_aborts_total");
    c_dark_retries_ = &metrics.GetCounter("fault_dark_retries_total");
    c_converted_ = &metrics.GetCounter("fault_converted_requests_total");
    c_req_failed_ = &metrics.GetCounter("fault_requests_failed_total");
    c_stranded_ = &metrics.GetCounter("fault_stranded_recoveries_total");
  }

  // Scrub/repair metrics only exist when scrub or media aging is configured,
  // mirroring the fault-metric rule above.
  if (scrub_.initialized()) {
    c_scrub_passes_ = &metrics.GetCounter("scrub_passes_total");
    c_scrub_detections_ = &metrics.GetCounter("scrub_detections_total");
    for (int t = 0; t < kNumRepairTiers; ++t) {
      c_repair_sectors_[t] = &metrics.GetCounter(
          "repair_sectors_total",
          {{"tier", RepairTierName(static_cast<RepairTier>(t))}});
    }
    c_repair_unrecoverable_ =
        &metrics.GetCounter("repair_unrecoverable_sectors_total");
    c_rebuild_reads_ = &metrics.GetCounter("repair_rebuild_reads_total");
  }

  // Tracks only exist when a sink is attached; the null tracer never registers
  // any, so repeated headless runs cannot accumulate track names.
  if (tracer_->enabled(kTraceAll)) {
    sched_track_ = tracer_->RegisterTrack("scheduler");
    pipeline_track_ = tracer_->RegisterTrack("write pipeline");
    if (injector_ != nullptr) {
      faults_track_ = tracer_->RegisterTrack("faults");
    }
    if (scrub_.initialized()) {
      scrub_track_ = tracer_->RegisterTrack("scrub");
    }
    for (auto& shuttle : shuttles_) {
      shuttle.track = tracer_->RegisterTrack("shuttle " + std::to_string(shuttle.id));
    }
    for (auto& drive : drives_) {
      drive.track = tracer_->RegisterTrack("drive " + std::to_string(drive.id));
    }
  }
}

void Sim::PublishSummaryMetrics() {
  if (tel_ == nullptr) {
    return;
  }
  sim_.FlushCounters();
  MetricsRegistry& metrics = tel_->metrics;
  // The Figure 6 drive split and the Figure 7 congestion overheads, exactly as the
  // CLI report prints them.
  metrics.GetGauge("library_drive_utilization").Set(result_.DriveUtilization());
  metrics.GetGauge("library_drive_read_fraction").Set(result_.DriveReadFraction());
  metrics.GetGauge("library_drive_verify_fraction")
      .Set(result_.DriveVerifyFraction());
  metrics.GetGauge("library_drive_read_seconds").Set(result_.drive_read_seconds);
  metrics.GetGauge("library_drive_verify_seconds")
      .Set(result_.drive_verify_seconds);
  metrics.GetGauge("library_drive_switch_seconds")
      .Set(result_.drive_switch_seconds);
  metrics.GetGauge("library_drive_idle_seconds").Set(result_.drive_idle_seconds);
  metrics.GetGauge("library_congestion_overhead_fraction")
      .Set(result_.CongestionOverheadFraction());
  metrics.GetGauge("library_congestion_wait_seconds")
      .Set(result_.congestion_wait_total);
  metrics.GetGauge("library_congestion_stops")
      .Set(static_cast<double>(result_.congestion_stops));
  metrics.GetGauge("library_energy_per_platter_operation")
      .Set(result_.EnergyPerPlatterOperation());
  metrics.GetGauge("library_requests_total")
      .Set(static_cast<double>(result_.requests_total));
  metrics.GetGauge("library_makespan_seconds").Set(result_.makespan);
  if (injector_ != nullptr) {
    metrics.GetGauge("library_requests_failed")
        .Set(static_cast<double>(result_.requests_failed));
    metrics.GetGauge("library_amplified_requests")
        .Set(static_cast<double>(result_.amplified_requests));
  }
  if (scrub_.initialized()) {
    metrics.GetGauge("scrub_latent_sectors")
        .Set(static_cast<double>(result_.scrub.latent_sectors));
    metrics.GetGauge("repair_detected_sectors")
        .Set(static_cast<double>(result_.scrub.ledger.detected));
    metrics.GetGauge("repair_bytes_lost")
        .Set(static_cast<double>(result_.scrub.ledger.bytes_lost));
  }
  for (const auto& drive : drives_) {
    const MetricLabels labels = {{"drive", std::to_string(drive.id)}};
    metrics.GetGauge("drive_read_seconds", labels).Set(drive.read_s);
    metrics.GetGauge("drive_verify_seconds", labels).Set(drive.verify_s);
    metrics.GetGauge("drive_switch_seconds", labels).Set(drive.switch_s);
  }
}

void Sim::OnArrival(const ReadRequest& request) {
  tracer_->AsyncBegin(kTraceScheduler, request.id, sim_.Now(), "request");
  if (Servable(request.platter)) {
    sched_.Submit(SchedulerOf(request.platter), request);
  } else if (!FanOutRecovery(request)) {
    // No recovery candidate is readable right now (only possible under dynamic
    // faults). Park the request in its queue and probe with backoff: components
    // may heal before the controller must give the read up.
    sched_.Submit(SchedulerOf(request.platter), request);
    EnsureRetry(request.platter);
  }
  TryDispatchAll();
}

bool Sim::FanOutRecovery(const ReadRequest& request) {
  // Cross-platter recovery (Section 5): read the matching tracks from I_p other
  // platters of the set; the request completes when the last sub-read does.
  const PlatterInfo& platter = platters_[request.platter];
  std::vector<uint64_t> candidates;
  const uint64_t info = config_.num_info_platters;
  const uint64_t set = platter.set;
  const uint64_t set_first = set * static_cast<uint64_t>(config_.platter_set_info);
  const uint64_t set_last = std::min<uint64_t>(
      set_first + static_cast<uint64_t>(config_.platter_set_info), info);
  for (uint64_t p = set_first; p < set_last; ++p) {
    if (p != request.platter && Servable(p)) {
      candidates.push_back(p);
    }
  }
  for (int r = 0; r < config_.platter_set_redundancy; ++r) {
    const uint64_t p =
        info + set * static_cast<uint64_t>(config_.platter_set_redundancy) +
        static_cast<uint64_t>(r);
    if (p < platters_.size() && Servable(p)) {
      candidates.push_back(p);
    }
  }
  const size_t needed = std::min<size_t>(
      candidates.size(), static_cast<size_t>(config_.platter_set_info));
  if (needed == 0) {
    return false;  // set currently lost (overlapping outages)
  }
  parents_[request.id] =
      ParentState{request.arrival, static_cast<int>(needed), request.parent};
  ++result_.amplified_requests;
  for (size_t i = 0; i < needed; ++i) {
    ReadRequest sub = request;
    sub.parent = request.id;
    sub.id = next_sub_id_++;
    sub.platter = candidates[i];
    // Sub-reads enter their queues now (equal to the arrival on the arrival
    // path; later when a dark platter's queue converts after retries). The
    // parent entry above keeps the original arrival for the latency stats.
    sub.arrival = sim_.Now();
    tracer_->AsyncBegin(kTraceScheduler, sub.id, sim_.Now(), "recovery_read");
    sched_.Submit(SchedulerOf(sub.platter), sub);
    ++result_.recovery_reads;
    if (c_recovery_reads_ != nullptr) {
      c_recovery_reads_->Increment();
    }
  }
  return true;
}

void Sim::TryDispatchAll() {
  switch (config_.library.policy) {
    case Policy::kNoShuttles:
      TryDispatchDrives();
      break;
    case Policy::kShortestPaths:
      TryDispatchReturns(0);
      TryDispatchGlobalShuttles();
      break;
    case Policy::kPartitioned:
      // Visit only partitions that can act: those with an idle shuttle, plus
      // orphaned ones (their returns may be served by any idle shuttle). For
      // every skipped partition the full scan this replaces was a no-op — it
      // had live-but-busy shuttles and no way to free one mid-sweep (`busy`
      // only flips idle -> busy inside a sweep; all idle-making transitions
      // arrive as scheduled events). Snapshot first: dispatching mutates the
      // ready set, and the old scan used the sweep-start membership. The
      // scratch buffer is swapped out for the duration so a re-entrant sweep
      // cannot clobber an in-progress iteration.
      {
        const bool prunable = !explicit_writes() && !ScrubAllowed();
        // Global no-op precheck: with no queued returns anywhere and every
        // nonzero shard scan-memo-dead, no partition can act — every own
        // select and every steal scan is known fruitless, and the verify /
        // scrub fallbacks are off. Three scalar loads retire the entire
        // sweep, which is what holds the per-event cost flat through the
        // congestion-heavy event mix of a large fleet (most events change
        // neither queue content nor platter accessibility).
        if (prunable && returns_pending_ == 0 &&
            sched_.live_nonzero_shards() == 0) {
          break;
        }
        std::vector<int> snapshot;
        snapshot.swap(dispatch_scratch_);
        snapshot.clear();
        std::set_union(ready_partitions_.begin(), ready_partitions_.end(),
                       orphaned_partitions_.begin(), orphaned_partitions_.end(),
                       std::back_inserter(snapshot));
        // The steal-cut memo survives sweeps whose inputs did not move: a
        // failed donor scan stays failed until some queue or scan memo
        // changes (the router's mutation epoch), a distress flag flips
        // (invalidated at the flip), or a dispatch runs (invalidated at the
        // action). Without this the first partition of every sweep repaid a
        // full donor enumeration just to rediscover the same dry heap.
        if (sched_.mutation_epoch() != steal_memo_epoch_) {
          steal_memo_epoch_ = sched_.mutation_epoch();
          InvalidateStealScanMemo();
        }
        // Inline no-op precheck, the scaling linchpin: a partition with an
        // empty shard, no queued returns, and a steal cut the memo already
        // proved fruitless can take no action whatsoever (idle or not), so
        // the sweep touches three flat arrays and moves on. Only partitions
        // with actual work — or verify / scrub fallback configured — pay for
        // the full dispatch attempt.
        const uint64_t empty_cut =
            static_cast<uint64_t>(config_.library.steal_threshold_bytes);
        for (int p : snapshot) {
          // A partition with no available drive and no queued returns cannot
          // act at all: TryDispatchPartition returns at the failed drive pick
          // before reaching a select, a steal, or the verify / scrub
          // fallbacks, and the returns path has nothing to serve. This is the
          // saturated-fleet common case (every input slot of the shared read
          // racks reserved), so it comes first.
          if (partition_avail_drives_[static_cast<size_t>(p)] == 0 &&
              returns_[static_cast<size_t>(p)].empty()) {
            continue;
          }
          if (prunable && returns_[static_cast<size_t>(p)].empty()) {
            const uint64_t qb = sched_.queued_bytes(p);
            if ((qb == 0 || sched_.ScanKnownEmpty(p)) &&
                (!config_.library.work_stealing ||
                 qb + empty_cut >= steal_noop_cut_)) {
              continue;
            }
          }
          // Orphaned partitions have no working shuttles of their own; their
          // queued returns are served by any idle shuttle, a path
          // TryDispatchPartition cannot reach (it exits when the partition has
          // no idle shuttle). Everyone else gets the identical returns-first
          // check inside TryDispatchPartition, so the extra call here would
          // repeat it verbatim.
          if (!orphaned_partitions_.empty() &&
              std::binary_search(orphaned_partitions_.begin(),
                                 orphaned_partitions_.end(), p)) {
            TryDispatchReturns(p);
          }
          TryDispatchPartition(p);
        }
        dispatch_scratch_.swap(snapshot);
      }
      break;
  }
}

int Sim::PickDriveNear(const std::vector<int>& candidates, double x) const {
  int best = -1;
  double best_distance = 1e18;
  for (int d : candidates) {
    const Drive& drive = drives_[static_cast<size_t>(d)];
    if (drive.down || drive.input_reserved) {
      continue;  // dead, or a platter is already on its way to this drive
    }
    const double distance = std::fabs(drive.pos.x - x);
    if (distance < best_distance) {
      best_distance = distance;
      best = d;
    }
  }
  return best;
}

void Sim::TryDispatchPartition(int p) {
  Shuttle* idle = nullptr;
  for (int s : partition_shuttles_[static_cast<size_t>(p)]) {
    if (!shuttles_[static_cast<size_t>(s)].busy &&
        !shuttles_[static_cast<size_t>(s)].failed) {
      idle = &shuttles_[static_cast<size_t>(s)];
      break;
    }
  }
  if (idle == nullptr) {
    return;
  }
  Shuttle& shuttle = *idle;
  if (TryDispatchReturns(p)) {
    TryDispatchPartition(p);  // another shuttle may still take a fetch
    return;
  }
  const uint64_t cut =
      sched_.queued_bytes(p) +
      static_cast<uint64_t>(config_.library.steal_threshold_bytes);
  if (sched_.queued_bytes(p) == 0 &&
      (!config_.library.work_stealing || cut >= steal_noop_cut_) &&
      !explicit_writes() && !ScrubAllowed()) {
    // Provable no-op: the shard is empty (SelectPlatter on an empty queue
    // yields nothing), the memo says a steal scan at this cut fails, and no
    // verify / scrub fallback is configured. Skip the drive scan and the
    // scheduler call — at large fleets this is the common case for every cold
    // partition on every sweep, and it is what keeps the per-sweep cost
    // proportional to actionable partitions rather than fleet size.
    return;
  }
  if (partition_avail_drives_[static_cast<size_t>(p)] == 0) {
    return;  // every drive blocked: the pick below could only fail
  }
  const Partition& partition = partitioner_->partitions()[static_cast<size_t>(p)];

  const int drive = PickDriveNear(partition.drives, partitioner_->HomeOf(p).x);
  if (drive < 0) {
    return;  // all of this partition's drives are occupied
  }

  auto accessible = [this](uint64_t platter) { return Accessible(platter); };
  std::optional<uint64_t> target = sched_.ScanKnownEmpty(p)
                                       ? std::nullopt
                                       : sched_.SelectPlatter(p, accessible);
  if (!target) {
    sched_.NoteScanFailed(p);
  }
  bool stolen = false;

  if (!target && config_.library.work_stealing && cut < steal_noop_cut_) {
    // Work stealing (Section 4.1): when this partition is idle and others are
    // overloaded beyond the threshold, fetch from an overloaded partition and
    // serve on our own drive. Donors come off the sharded scheduler's lazy
    // max-heap in the exact most-loaded-first order of the scan-and-sort this
    // replaces; without distressed partitions the enumeration stops at the
    // first donor under the threshold instead of visiting every queue.
    sched_.ForEachDonor(
        p, cut, distressed_count_ > 0, [&](uint64_t bytes, int q) {
          // Partitions that cannot help themselves — all shuttles failed, or
          // every read drive down — are stolen from unconditionally; anyone
          // else must exceed the threshold. Donors whose queued work is all on
          // inaccessible (mounted / in-flight) platters are skipped.
          if (bytes <= cut &&
              partition_distressed_[static_cast<size_t>(q)] == 0) {
            return true;
          }
          target = sched_.ScanKnownEmpty(q)
                       ? std::nullopt
                       : sched_.SelectPlatter(q, accessible);
          if (target) {
            stolen = true;
            return false;
          }
          sched_.NoteScanFailed(q);
          return true;
        });
    if (!target) {
      steal_noop_cut_ = std::min(steal_noop_cut_, cut);
    }
  }
  if (!target) {
    if (explicit_writes()) {
      TryDispatchVerifyWork(shuttle, p);
    } else if (ScrubAllowed()) {
      // Idle verify capacity: scrub a stored platter of this partition.
      TryDispatchScrubWork(shuttle, p);
    }
    return;
  }
  if (stolen) {
    ++result_.work_steals;
    if (c_steals_ != nullptr) {
      c_steals_->Increment();
    }
    tracer_->Instant(kTraceScheduler, sched_track_, sim_.Now(), "work_steal",
                     {{"partition", static_cast<double>(p)}});
  }

  platters_[*target].state = PlatterInfo::State::kTargeted;
  drives_[static_cast<size_t>(drive)].input_reserved = true;
  NoteDriveAvailability(drive);
  shuttle.busy = true;
  NoteShuttleAvailability(shuttle);
  InvalidateStealScanMemo();
  StartFetch(shuttle, *target, drive);
}

void Sim::TryDispatchGlobalShuttles() {
  for (;;) {
    const auto target =
        sched_.ScanKnownEmpty(0)
            ? std::nullopt
            : sched_.SelectPlatter(
                  0, [this](uint64_t platter) { return Accessible(platter); });
    if (!target) {
      sched_.NoteScanFailed(0);
      if (explicit_writes()) {
        for (auto& s : shuttles_) {
          if (!s.busy && !s.failed && !TryDispatchVerifyWork(s, 0)) {
            break;
          }
        }
      } else if (ScrubAllowed()) {
        for (auto& s : shuttles_) {
          if (!s.busy && !s.failed && !TryDispatchScrubWork(s, 0)) {
            break;
          }
        }
      }
      return;
    }
    const PlatterInfo& platter = platters_[*target];
    // Nearest idle shuttle.
    Shuttle* best_shuttle = nullptr;
    double best_distance = 1e18;
    for (auto& s : shuttles_) {
      if (s.busy || s.failed) {
        continue;
      }
      const double distance =
          std::fabs(s.x - platter.x) + 0.5 * std::abs(s.shelf - platter.shelf);
      if (distance < best_distance) {
        best_distance = distance;
        best_shuttle = &s;
      }
    }
    if (best_shuttle == nullptr) {
      return;
    }
    std::vector<int> all_drives(drives_.size());
    for (size_t d = 0; d < drives_.size(); ++d) {
      all_drives[d] = static_cast<int>(d);
    }
    const int drive = PickDriveNear(all_drives, platter.x);
    if (drive < 0) {
      return;
    }
    platters_[*target].state = PlatterInfo::State::kTargeted;
    drives_[static_cast<size_t>(drive)].input_reserved = true;
    NoteDriveAvailability(drive);
    best_shuttle->busy = true;
    NoteShuttleAvailability(*best_shuttle);
    StartFetch(*best_shuttle, *target, drive);
  }
}

void Sim::TryDispatchDrives() {
  if (explicit_writes()) {
    for (auto& drive : drives_) {
      if (!eject_queue_.empty() && !drive.down && !drive.verify_present &&
          !drive.verified_waiting) {
        const uint64_t id = eject_queue_.front();
        eject_queue_.pop_front();
        drive.verify_present = true;
        drive.verify_platter = id;
        drive.verify_remaining_s = VerifySeconds(drive);
        platters_[id].state = PlatterInfo::State::kAtDrive;
        if (!drive.mounted) {
          StartVerifyClock(drive.id);
        }
      }
    }
  }
  for (auto& drive : drives_) {
    if (drive.down || drive.input_reserved || drive.mounted) {
      continue;
    }
    const auto target =
        sched_.SelectPlatter(0, [this](uint64_t platter) { return Accessible(platter); });
    if (!target) {
      break;
    }
    // NS: the platter is loaded the instant the drive frees up.
    const uint64_t platter = *target;
    platters_[platter].state = PlatterInfo::State::kAtDrive;
    drive.input_reserved = true;
    NoteDriveAvailability(drive.id);
    DeliverToDrive(drive.id, platter);
  }
  if (ScrubAllowed()) {
    // NS scrub: teleport a due platter straight into a free verify slot.
    for (auto& drive : drives_) {
      if (drive.down || drive.verify_present || drive.verify_incoming ||
          drive.verified_waiting) {
        continue;
      }
      const auto target = scrub_.SelectPlatter(
          sim_.Now(), [this](uint64_t platter) { return Accessible(platter); });
      if (!target) {
        break;
      }
      platters_[*target].state = PlatterInfo::State::kAtDrive;
      BeginScrubPass(drive.id, *target);
    }
  }
}

bool Sim::TryDispatchReturns(int p) {
  auto& queue = returns_[static_cast<size_t>(p)];
  // First job whose drive is alive; jobs against sealed (down) drives wait for
  // the repair without blocking the rest of the queue.
  size_t job_index = queue.size();
  for (size_t i = 0; i < queue.size(); ++i) {
    if (!drives_[static_cast<size_t>(queue[i].drive)].down) {
      job_index = i;
      break;
    }
  }
  if (job_index == queue.size()) {
    return false;
  }
  // Prefer a shuttle of the partition; SP (and orphaned partitions, whose own
  // shuttles have failed) use any idle shuttle.
  Shuttle* shuttle = nullptr;
  if (partitioned() && !PartitionOrphaned(p)) {
    for (int s : partition_shuttles_[static_cast<size_t>(p)]) {
      if (!shuttles_[static_cast<size_t>(s)].busy &&
          !shuttles_[static_cast<size_t>(s)].failed) {
        shuttle = &shuttles_[static_cast<size_t>(s)];
        break;
      }
    }
  } else {
    for (auto& s : shuttles_) {
      if (!s.busy && !s.failed) {
        shuttle = &s;
        break;
      }
    }
  }
  if (shuttle == nullptr) {
    return false;
  }
  const ReturnJob job = queue[job_index];
  queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(job_index));
  --returns_pending_;
  shuttle->busy = true;
  NoteShuttleAvailability(*shuttle);
  InvalidateStealScanMemo();
  StartReturn(*shuttle, job);
  return true;
}

Sim::Leg Sim::Travel(Shuttle& shuttle, double x, int shelf) {
  Leg leg;
  // The traversal lane may differ from the destination shelf when the
  // congestion-aware router finds a cheaper detour: crab to `lane`, run the
  // horizontal leg there, crab the rest of the way. With routing off (or a
  // vertical-only move) lane == shelf, the post-crab loop draws nothing, and
  // the RNG consumption is identical to the pre-router model.
  const int lane = PickTravelLane(shuttle, x, shelf);
  const int pre_crabs = std::abs(lane - shuttle.shelf);
  const int post_crabs = std::abs(shelf - lane);
  leg.crabs = pre_crabs + post_crabs;
  double pre_total = 0.0;
  for (int c = 0; c < pre_crabs; ++c) {
    pre_total += motion_.CrabTime(shuttle.rng);
  }
  leg.distance = std::fabs(x - shuttle.x);
  const double horizontal =
      motion_.HorizontalTravelTime(leg.distance, shuttle.rng);
  double post_total = 0.0;
  for (int c = 0; c < post_crabs; ++c) {
    post_total += motion_.CrabTime(shuttle.rng);
  }
  leg.expected =
      pre_total + post_total + motion_.ExpectedHorizontalTravelTime(leg.distance);

  if (leg.distance > 0.0) {
    const int from = panel_.SegmentOf(shuttle.x);
    const int to = panel_.SegmentOf(x);
    const int segments = std::abs(to - from) + 1;
    const double start = sim_.Now() + pre_total;
    const auto traversal = rails_.Traverse(lane, from, to, start,
                                           horizontal / segments);
    leg.congestion = traversal.congestion_wait;
    leg.stops = traversal.stops;
    leg.duration = pre_total + (traversal.arrive_time - start) + post_total;
  } else {
    leg.duration = pre_total + post_total;
  }

  shuttle.x = x;
  shuttle.shelf = shelf;

  const double energy = motion_.TravelEnergy(leg.distance, 1 + leg.stops, leg.crabs);
  result_.travel_energy_total += energy;
  shuttle.battery -= energy;
  tracer_->Span(kTraceShuttle, shuttle.track, sim_.Now(), leg.duration, "travel",
                {{"distance_m", leg.distance},
                 {"congestion_s", leg.congestion},
                 {"stops", static_cast<double>(leg.stops)},
                 {"crabs", static_cast<double>(leg.crabs)}});
  return leg;
}

int Sim::PickTravelLane(const Shuttle& shuttle, double x, int shelf) {
  if (!config_.library.congestion_aware_routing || x == shuttle.x) {
    return shelf;
  }
  const int from = panel_.SegmentOf(shuttle.x);
  const int to = panel_.SegmentOf(x);
  const int segments = std::abs(to - from) + 1;
  const double segment_time =
      motion_.ExpectedHorizontalTravelTime(std::fabs(x - shuttle.x)) / segments;
  const double crab_time = motion_.ExpectedCrabTime();
  const int base_crabs = std::abs(shelf - shuttle.shelf);
  // Fast path: a completely free target lane costs 0 (no extra crabs, no
  // projected wait, no pressure), and 0 wins every strict-< comparison from
  // the first candidate slot — identical to running the full loop.
  {
    const double start = sim_.Now() + base_crabs * crab_time;
    const auto probe = rails_.Probe(shelf, from, to, start, segment_time);
    if (probe.occupied == 0 && probe.wait == 0.0) {
      return shelf;
    }
  }
  // Candidate order (target shelf first, then nearer detours, minus before
  // plus) with a strict < comparison makes ties resolve toward the target
  // shelf, then toward the smaller detour, then toward the lower lane — a
  // total order independent of evaluation noise.
  int best_lane = shelf;
  double best_cost = 1e300;
  for (int d = 0; d <= config_.library.congestion_detour_shelves; ++d) {
    for (int sign = 0; sign < (d == 0 ? 1 : 2); ++sign) {
      const int lane = sign == 0 ? shelf - d : shelf + d;
      if (lane < 0 || lane >= config_.library.shelves) {
        continue;
      }
      const int crabs = std::abs(lane - shuttle.shelf) + std::abs(shelf - lane);
      // Crabs to reach the lane happen before the traversal starts, so the
      // reservation table is probed at the projected entry time.
      const double start =
          sim_.Now() + std::abs(lane - shuttle.shelf) * crab_time;
      // Cost = extra crab time + the wait the reservation table already
      // guarantees + a pressure term for segments that will be busy near our
      // entry (they foreshadow id-priority backoff the projection can't see).
      const auto probe = rails_.Probe(lane, from, to, start, segment_time);
      const double cost = (crabs - base_crabs) * crab_time + probe.wait +
                          0.25 * segment_time * probe.occupied;
      if (cost < best_cost) {
        best_cost = cost;
        best_lane = lane;
      }
    }
  }
  if (best_lane != shelf) {
    ++result_.congestion_detours;
  }
  return best_lane;
}

void Sim::RecordLeg(const Leg& leg) {
  ++result_.travels;
  result_.travel_times.Add(leg.duration);
  result_.congestion_wait_total += leg.congestion;
  result_.expected_travel_total += leg.expected;
  result_.congestion_stops += static_cast<uint64_t>(leg.stops);
  if (c_travels_ != nullptr) {
    c_travels_->Increment();
    h_travel_->Observe(leg.duration);
  }
}

void Sim::StartFetch(Shuttle& shuttle, uint64_t platter, int drive) {
  const PlatterInfo& info = platters_[platter];
  const auto fetch_span = tracer_->BeginSpan(
      kTraceShuttle, shuttle.track, sim_.Now(), "fetch",
      {{"platter", static_cast<double>(platter)},
       {"drive", static_cast<double>(drive)}});
  const Leg leg1 = Travel(shuttle, info.x, info.shelf);
  RecordLeg(leg1);
  const double pick = motion_.PickTime(shuttle.rng);
  result_.travel_energy_total += motion_.PickPlaceEnergy();
  ++result_.platter_operations;
  if (c_platter_ops_ != nullptr) {
    c_platter_ops_->Increment();
  }
  tracer_->Span(kTraceShuttle, shuttle.track, sim_.Now() + leg1.duration, pick,
                "pick");

  shuttle.job = Shuttle::Job::kFetchGo;
  shuttle.job_platter = platter;
  shuttle.job_drive = drive;
  shuttle.job_event =
      Arm(leg1.duration + pick,
          PendingEvent{kEvFetchPick, shuttle.id, platter,
                       static_cast<uint64_t>(drive), fetch_span});
}

void Sim::FetchPick(Shuttle& shuttle, uint64_t platter, int drive,
                    Tracer::SpanHandle fetch_span) {
  const Drive& d = drives_[static_cast<size_t>(drive)];
  const Leg leg2 = Travel(shuttle, d.pos.x, d.pos.shelf);
  RecordLeg(leg2);
  const double place = motion_.PlaceTime(shuttle.rng);
  result_.travel_energy_total += motion_.PickPlaceEnergy();
  tracer_->Span(kTraceShuttle, shuttle.track, sim_.Now() + leg2.duration, place,
                "place");

  shuttle.job = Shuttle::Job::kFetchCarry;
  shuttle.job_event =
      Arm(leg2.duration + place,
          PendingEvent{kEvFetchPlace, shuttle.id, platter,
                       static_cast<uint64_t>(drive), fetch_span});
}

void Sim::FetchPlace(Shuttle& shuttle, uint64_t platter, int drive,
                     Tracer::SpanHandle fetch_span) {
  platters_[platter].state = PlatterInfo::State::kAtDrive;
  tracer_->EndSpan(fetch_span, sim_.Now());
  DeliverToDrive(drive, platter);
  OnShuttleJobDone(shuttle);
}

void Sim::StartReturn(Shuttle& shuttle, const ReturnJob& job) {
  const Drive& drive = drives_[static_cast<size_t>(job.drive)];
  const auto return_span = tracer_->BeginSpan(
      kTraceShuttle, shuttle.track, sim_.Now(),
      job.verify_slot ? "store_verified" : "return",
      {{"platter", static_cast<double>(job.platter)},
       {"drive", static_cast<double>(job.drive)}});
  const Leg leg1 = Travel(shuttle, drive.pos.x, drive.pos.shelf);
  RecordLeg(leg1);
  const double pick = motion_.PickTime(shuttle.rng);
  result_.travel_energy_total += motion_.PickPlaceEnergy();
  ++result_.platter_operations;
  if (c_platter_ops_ != nullptr) {
    c_platter_ops_->Increment();
  }
  tracer_->Span(kTraceShuttle, shuttle.track, sim_.Now() + leg1.duration, pick,
                "pick");

  shuttle.job = Shuttle::Job::kReturnGo;
  shuttle.job_platter = job.platter;
  shuttle.job_drive = job.drive;
  shuttle.job_return = job;
  shuttle.job_event =
      Arm(leg1.duration + pick,
          PendingEvent{kEvReturnPick, shuttle.id, job.platter, PackReturnJob(job),
                       return_span});
}

void Sim::ReturnPick(Shuttle& shuttle, const ReturnJob& job,
                     Tracer::SpanHandle return_span) {
  Drive& d = drives_[static_cast<size_t>(job.drive)];
  if (job.verify_slot) {
    // Collected the verified platter: the verify slot frees for the next one.
    d.verified_waiting = false;
    TryDispatchAll();
    const PlatterInfo& target = platters_[job.platter];
    const Leg leg_store = Travel(shuttle, target.x, target.shelf);
    RecordLeg(leg_store);
    const double place_store = motion_.PlaceTime(shuttle.rng);
    result_.travel_energy_total += motion_.PickPlaceEnergy();
    tracer_->Span(kTraceShuttle, shuttle.track, sim_.Now() + leg_store.duration,
                  place_store, "place");
    shuttle.job = Shuttle::Job::kReturnCarry;
    shuttle.job_event =
        Arm(leg_store.duration + place_store,
            PendingEvent{kEvReturnStore, shuttle.id, job.platter,
                         PackReturnJob(job), return_span});
    return;
  }
  // Pickup complete: the output station frees; if an unmounted platter was stuck
  // inside the drive, move it out now and let the drive continue.
  d.output_occupied = false;
  if (d.output_pending) {
    // Move the stuck platter into the freed output station and resume: the
    // drive was already verifying; a waiting input platter can mount now.
    d.output_pending = false;
    d.output_occupied = true;
    const int p = partitioned() ? platters_[d.output_platter].partition : 0;
    returns_[static_cast<size_t>(p)].push_back(
        ReturnJob{.platter = d.output_platter, .drive = job.drive});
    ++returns_pending_;
    TryStartSession(job.drive);
  }

  const PlatterInfo& info = platters_[job.platter];
  const Leg leg2 = Travel(shuttle, info.x, info.shelf);
  RecordLeg(leg2);
  const double place = motion_.PlaceTime(shuttle.rng);
  result_.travel_energy_total += motion_.PickPlaceEnergy();
  tracer_->Span(kTraceShuttle, shuttle.track, sim_.Now() + leg2.duration, place,
                "place");

  shuttle.job = Shuttle::Job::kReturnCarry;
  shuttle.job_event =
      Arm(leg2.duration + place,
          PendingEvent{kEvReturnStore, shuttle.id, job.platter, PackReturnJob(job),
                       return_span});
}

void Sim::ReturnStore(Shuttle& shuttle, const ReturnJob& job,
                      Tracer::SpanHandle return_span) {
  platters_[job.platter].state = PlatterInfo::State::kStored;
  NoteAccessibilityImproved(job.platter);
  if (job.verify_slot && !job.scrub) {
    // Scrubbed platters were not just written: no verify turnaround to
    // record and no pipeline span to close.
    const double turnaround = sim_.Now() - platters_[job.platter].created_at;
    result_.verify_turnaround.Add(turnaround);
    if (h_verify_turnaround_ != nullptr) {
      h_verify_turnaround_->Observe(turnaround);
    }
  }
  tracer_->EndSpan(return_span, sim_.Now());
  if (job.verify_slot && !job.scrub) {
    tracer_->AsyncEnd(kTracePipeline, job.platter, sim_.Now(), "platter_verify");
  }
  OnShuttleJobDone(shuttle);
}

void Sim::OnShuttleJobDone(Shuttle& shuttle) {
  shuttle.job = Shuttle::Job::kNone;
  shuttle.job_event = Simulator::kInvalidEvent;
  if (shuttle.failed) {
    // The controller detected the failure; the shuttle parks permanently.
    TryDispatchAll();
    return;
  }
  const double capacity = config_.library.shuttle_battery_capacity;
  if (capacity > 0.0 && shuttle.battery < 0.15 * capacity) {
    // Recharge in place (docks line the rails); the shuttle is unavailable to the
    // traffic manager until charged.
    ++result_.shuttle_recharges;
    if (c_recharges_ != nullptr) {
      c_recharges_->Increment();
    }
    tracer_->Span(kTraceShuttle, shuttle.track, sim_.Now(),
                  config_.library.shuttle_recharge_s, "recharge");
    shuttle.job = Shuttle::Job::kRecharge;
    shuttle.job_event = Arm(config_.library.shuttle_recharge_s,
                            PendingEvent{kEvRecharge, shuttle.id});
    return;
  }
  shuttle.busy = false;
  NoteShuttleAvailability(shuttle);
  TryDispatchAll();
}

void Sim::RechargeDone(Shuttle& shuttle) {
  shuttle.job = Shuttle::Job::kNone;
  shuttle.job_event = Simulator::kInvalidEvent;
  shuttle.battery = config_.library.shuttle_battery_capacity;
  shuttle.busy = false;
  NoteShuttleAvailability(shuttle);
  TryDispatchAll();
}

void Sim::DeliverToDrive(int drive_id, uint64_t platter) {
  Drive& drive = drives_[static_cast<size_t>(drive_id)];
  drive.input_occupied = true;
  drive.input_platter = platter;
  if (drive.down) {
    // Delivered into a drive that died while the fetch was in flight: the
    // platter is captive in the input station until the repair.
    ++platters_[platter].dark;
    EnsureRetry(platter);
    return;
  }
  TryStartSession(drive_id);
}

void Sim::TryStartSession(int drive_id) {
  Drive& drive = drives_[static_cast<size_t>(drive_id)];
  if (drive.down || drive.mounted || !drive.input_occupied || drive.output_pending) {
    return;
  }
  const uint64_t platter = drive.input_platter;
  drive.input_occupied = false;
  drive.input_reserved = false;  // the input station frees for the next fetch
  NoteDriveAvailability(drive_id);
  drive.mounted = true;
  drive.mounted_platter = platter;
  drive.served_in_session = 0;

  // Preempt verification: accrue verify time, pay the switch, mount the platter.
  PauseVerifyClock(drive_id);
  const double switch_cost = SwitchCost();
  drive.switch_s += switch_cost;
  drive.read_s += motion_.MountTime();
  tracer_->Span(kTraceDrive, drive.track, sim_.Now(), switch_cost, "switch");
  tracer_->Span(kTraceDrive, drive.track, sim_.Now() + switch_cost,
                motion_.MountTime(), "mount",
                {{"platter", static_cast<double>(platter)}});
  Arm(switch_cost + motion_.MountTime(),
      PendingEvent{kEvMountDone, drive_id, platter});
  // A new fetch can head for the freed input station right away.
  TryDispatchAll();
}

void Sim::ServeNext(int drive_id, uint64_t platter) {
  Drive& drive = drives_[static_cast<size_t>(drive_id)];
  if (drive.down) {
    // Sealed: the session picks back up from here when the drive is repaired.
    drive.resume_pending = true;
    return;
  }
  const bool grouping = config_.library.group_platter_requests;
  if (!grouping && drive.served_in_session > 0) {
    EndSession(drive_id, platter);
    return;
  }
  auto taken = sched_.TakeRequests(SchedulerOf(platter), platter, /*all=*/false);
  if (taken.empty()) {
    EndSession(drive_id, platter);
    return;
  }
  const ReadRequest request = taken.front();
  Rng& rng = shuttles_.empty() ? rng_ : shuttles_[0].rng;
  const double seek = motion_.SeekTime(rng);
  const double read = static_cast<double>(TracksFor(request.bytes)) *
                      TrackReadSeconds(drive);
  drive.read_s += seek + read;
  ++drive.served_in_session;
  if (h_queue_wait_ != nullptr) {
    h_queue_wait_->Observe(sim_.Now() - request.arrival);
  }
  tracer_->AsyncInstant(kTraceScheduler, request.id, sim_.Now(), "dispatch");
  tracer_->Span(kTraceDrive, drive.track, sim_.Now(), seek + read, "read",
                {{"bytes", static_cast<double>(request.bytes)},
                 {"seek_s", seek},
                 {"request", static_cast<double>(request.id)}});
  drive.inflight = request;
  drive.read_started = sim_.Now();
  drive.read_cost = seek + read;
  drive.read_event =
      Arm(seek + read, PendingEvent{kEvReadDone, drive_id, platter});
}

void Sim::OnReadDone(int drive_id, uint64_t platter) {
  Drive& drive = drives_[static_cast<size_t>(drive_id)];
  const ReadRequest request = drive.inflight;
  drive.read_event = Simulator::kInvalidEvent;
  RecordCompletion(request);
  ServeNext(drive_id, platter);
}

void Sim::EndSession(int drive_id, uint64_t platter) {
  Drive& drive = drives_[static_cast<size_t>(drive_id)];
  if (scrub_.initialized()) {
    // The session's reads just swept part of this platter: latent damage
    // surfaces here too, not only under the scrubber (CRC failures during
    // customer reads are the other detection channel a real library has).
    PlatterHealth& h = scrub_.health(platter);
    if (!h.rebuilding && !h.lost && h.TotalLatent() > 0) {
      ++result_.scrub.read_detections;
      if (h.latent[0] > 0) {
        // Shallow damage clears inline: the drive re-reads the failing sector
        // while the platter is mounted anyway (tier-0 LDPC retry).
        const uint64_t n = h.latent[0];
        h.latent[0] = 0;
        result_.scrub.ledger.detected += n;
        result_.scrub.ledger.Add(RepairTier::kLdpcRetry, n);
        if (c_repair_sectors_[0] != nullptr) {
          c_repair_sectors_[0]->Increment(static_cast<double>(n));
        }
      }
      if (h.TotalLatent() > 0) {
        // Deeper damage needs a dedicated pass: jump the scrub queue.
        scrub_.MarkSuspect(platter);
        tracer_->Instant(kTraceScrub, scrub_track_, sim_.Now(), "read_detection",
                         {{"platter", static_cast<double>(platter)}});
      }
    }
  }
  const double unmount = motion_.UnmountTime();
  drive.read_s += unmount;
  tracer_->Span(kTraceDrive, drive.track, sim_.Now(), unmount, "unmount",
                {{"platter", static_cast<double>(platter)},
                 {"served", static_cast<double>(drive.served_in_session)}});
  Arm(unmount, PendingEvent{kEvUnmountDone, drive_id, platter});
}

void Sim::OnUnmountDone(int drive_id, uint64_t platter) {
  Drive& d = drives_[static_cast<size_t>(drive_id)];
  d.mounted = false;
  if (config_.library.policy == Policy::kNoShuttles) {
    // NS: the platter teleports home. If the drive died mid-unmount the
    // platter still escapes, so release the captive mark taken at failure.
    platters_[platter].state = PlatterInfo::State::kStored;
    if (d.down && platters_[platter].dark > 0) {
      --platters_[platter].dark;
    }
    NoteAccessibilityImproved(platter);
    FinishUnmount(drive_id);
    return;
  }
  if (d.output_occupied) {
    // The previous platter is still waiting for a shuttle; hold this one in the
    // drive until the output station frees (the pickup path moves it out). The
    // drive switches back to its verification platter in the meantime.
    d.output_pending = true;
    d.output_platter = platter;  // reuse the field as the pending payload
  } else {
    d.output_occupied = true;
    d.output_platter = platter;
    const int p = partitioned() ? platters_[platter].partition : 0;
    returns_[static_cast<size_t>(p)].push_back(
        ReturnJob{.platter = platter, .drive = drive_id});
    ++returns_pending_;
  }
  FinishUnmount(drive_id);
}

void Sim::FinishUnmount(int drive_id) {
  Drive& drive = drives_[static_cast<size_t>(drive_id)];
  if (drive.input_occupied && !drive.output_pending) {
    // Customer-to-customer switch: the next platter is already waiting.
    TryStartSession(drive_id);
  } else {
    // Switch back to the co-mounted verification platter.
    const double switch_cost = SwitchCost();
    drive.switch_s += switch_cost;
    tracer_->Span(kTraceDrive, drive.track, sim_.Now(), switch_cost, "switch");
    Arm(switch_cost, PendingEvent{kEvSwitchBack, drive_id});
  }
  TryDispatchAll();
}

void Sim::OnSwitchBack(int drive_id) {
  Drive& d = drives_[static_cast<size_t>(drive_id)];
  if (!d.mounted) {
    StartVerifyClock(drive_id);
  }
  TryDispatchAll();
}

void Sim::StartVerifyClock(int drive_id) {
  Drive& drive = drives_[static_cast<size_t>(drive_id)];
  if (drive.down || drive.verifying || drive.mounted || !drive.verify_present) {
    return;
  }
  drive.verifying = true;
  drive.verify_since = sim_.Now();
  drive.verify_span = tracer_->BeginSpan(
      kTraceDrive, drive.track, sim_.Now(), "verify",
      {{"platter", static_cast<double>(drive.verify_platter)}});
  if (drive.verify_remaining_s < Simulator::kForever / 2) {
    drive.verify_event =
        Arm(drive.verify_remaining_s, PendingEvent{kEvVerifyDone, drive_id});
  }
}

void Sim::PauseVerifyClock(int drive_id) {
  Drive& drive = drives_[static_cast<size_t>(drive_id)];
  if (!drive.verifying) {
    return;
  }
  const double elapsed = std::max(0.0, sim_.Now() - drive.verify_since);
  drive.verify_s += elapsed;
  drive.verify_remaining_s -= elapsed;
  drive.verifying = false;
  tracer_->EndSpan(drive.verify_span, sim_.Now());
  drive.verify_span = Tracer::kInvalidSpan;
  sim_.Cancel(drive.verify_event);
  drive.verify_event = Simulator::kInvalidEvent;
}

void Sim::OnVerifyComplete(int drive_id) {
  Drive& drive = drives_[static_cast<size_t>(drive_id)];
  if (drive.scrubbing) {
    // A scrub phase (detection read or inline-repair reads) finished; the slot
    // release and health accounting differ from write verification.
    drive.verify_event = Simulator::kInvalidEvent;
    drive.verify_s += std::max(0.0, sim_.Now() - drive.verify_since);
    drive.verifying = false;
    tracer_->EndSpan(drive.verify_span, sim_.Now());
    drive.verify_span = Tracer::kInvalidSpan;
    OnScrubPassComplete(drive_id);
    return;
  }
  drive.verify_event = Simulator::kInvalidEvent;
  drive.verify_s += std::max(0.0, sim_.Now() - drive.verify_since);
  drive.verifying = false;
  drive.verify_present = false;
  ++result_.platters_verified;
  tracer_->EndSpan(drive.verify_span, sim_.Now());
  drive.verify_span = Tracer::kInvalidSpan;
  tracer_->Instant(kTraceDrive, drive.track, sim_.Now(), "verify_complete",
                   {{"platter", static_cast<double>(drive.verify_platter)}});

  // The verified platter waits in the verify slot for a shuttle to store it; its
  // staged copy can now be released.
  if (config_.library.policy == Policy::kNoShuttles) {
    platters_[drive.verify_platter].state = PlatterInfo::State::kStored;
    NoteAccessibilityImproved(drive.verify_platter);
    const double turnaround =
        sim_.Now() - platters_[drive.verify_platter].created_at;
    result_.verify_turnaround.Add(turnaround);
    if (h_verify_turnaround_ != nullptr) {
      h_verify_turnaround_->Observe(turnaround);
    }
    tracer_->AsyncEnd(kTracePipeline, drive.verify_platter, sim_.Now(),
                      "platter_verify");
  } else {
    drive.verified_waiting = true;
    const int p = partitioned() ? platters_[drive.verify_platter].partition : 0;
    returns_[static_cast<size_t>(p)].push_back(ReturnJob{
        .platter = drive.verify_platter, .drive = drive_id, .verify_slot = true});
    ++returns_pending_;
  }
  MaybeStopInjecting();
  TryDispatchAll();
}

void Sim::ProduceWrittenPlatter() {
  ProduceOnePlatter();
  const double interval = 3600.0 / EffectiveWriteRate();
  if (sim_.Now() + interval <= config_.write_until) {
    Arm(interval, PendingEvent{kEvProduceWrite});
  }
}

// One platter through eject -> verify dispatch, shared by the local write
// clock (ProduceWrittenPlatter) and federated replication (kEvFederatedWrite,
// which must not perturb the local clock's re-arm chain).
void Sim::ProduceOnePlatter() {
  const auto& lib = config_.library;
  const uint64_t slot_index = platters_.size();
  if (slot_index >= static_cast<uint64_t>(lib.storage_slots())) {
    return;  // library full: the write drive stops (a new MDU would be deployed)
  }
  PlatterInfo p;
  p.slot.rack = static_cast<int>(slot_index % static_cast<uint64_t>(lib.storage_racks));
  p.slot.shelf = static_cast<int>((slot_index / static_cast<uint64_t>(lib.storage_racks)) %
                                  static_cast<uint64_t>(lib.shelves));
  p.slot.slot = static_cast<int>(
      (slot_index / static_cast<uint64_t>(lib.storage_racks * lib.shelves)) %
      static_cast<uint64_t>(lib.slots_per_shelf));
  p.x = panel_.SlotX(p.slot);
  p.shelf = p.slot.shelf;
  p.partition = partitioned() ? partitioner_->PartitionOfSlot(p.x, p.shelf) : 0;
  p.created_at = sim_.Now();
  p.state = PlatterInfo::State::kAtEject;
  platters_.push_back(p);
  eject_queue_.push_back(slot_index);
  ++result_.platters_written;
  if (c_platters_written_ != nullptr) {
    c_platters_written_->Increment();
  }
  tracer_->Instant(kTracePipeline, pipeline_track_, sim_.Now(), "eject",
                   {{"platter", static_cast<double>(slot_index)}});
  tracer_->AsyncBegin(kTracePipeline, slot_index, sim_.Now(), "platter_verify");

  if (config_.library.policy == Policy::kNoShuttles) {
    // Teleport straight into the first drive with a free verify slot.
    for (auto& drive : drives_) {
      if (!drive.down && !drive.verify_present && !drive.verified_waiting) {
        const uint64_t id = eject_queue_.front();
        eject_queue_.pop_front();
        drive.verify_present = true;
        drive.verify_platter = id;
        drive.verify_remaining_s = VerifySeconds(drive);
        platters_[id].state = PlatterInfo::State::kAtDrive;
        StartVerifyClock(drive.id);
        break;
      }
    }
  }
  TryDispatchAll();
}

double Sim::EffectiveWriteRate() const {
  double rate = config_.write_platters_per_hour;
  if (config_.write_surge_factor != 1.0 &&
      sim_.Now() >= config_.write_surge_start_s &&
      sim_.Now() < config_.write_surge_start_s + config_.write_surge_duration_s) {
    rate *= config_.write_surge_factor;
  }
  return rate;
}

bool Sim::TryDispatchVerifyWork(Shuttle& shuttle, int partition) {
  if (eject_queue_.empty()) {
    return false;
  }
  // Find a drive (in this partition for the partitioned policy) with a free
  // verify slot and no delivery already en route.
  int target_drive = -1;
  if (partitioned()) {
    for (int d : partitioner_->partitions()[static_cast<size_t>(partition)].drives) {
      const Drive& drive = drives_[static_cast<size_t>(d)];
      if (!drive.down && !drive.verify_present && !drive.verify_incoming &&
          !drive.verified_waiting) {
        target_drive = d;
        break;
      }
    }
  } else {
    for (const auto& drive : drives_) {
      if (!drive.down && !drive.verify_present && !drive.verify_incoming &&
          !drive.verified_waiting) {
        target_drive = drive.id;
        break;
      }
    }
  }
  if (target_drive < 0) {
    return false;
  }
  const uint64_t platter = eject_queue_.front();
  eject_queue_.pop_front();
  drives_[static_cast<size_t>(target_drive)].verify_incoming = true;
  shuttle.busy = true;
  NoteShuttleAvailability(shuttle);
  InvalidateStealScanMemo();
  StartVerifyDelivery(shuttle, platter, target_drive);
  return true;
}

void Sim::StartVerifyDelivery(Shuttle& shuttle, uint64_t platter, int drive_id) {
  const auto bay = panel_.WriteEjectBay();
  const auto delivery_span = tracer_->BeginSpan(
      kTraceShuttle, shuttle.track, sim_.Now(), "verify_delivery",
      {{"platter", static_cast<double>(platter)},
       {"drive", static_cast<double>(drive_id)}});
  const Leg leg1 = Travel(shuttle, bay.x, bay.shelf);
  RecordLeg(leg1);
  const double pick = motion_.PickTime(shuttle.rng);
  result_.travel_energy_total += motion_.PickPlaceEnergy();
  ++result_.platter_operations;
  if (c_platter_ops_ != nullptr) {
    c_platter_ops_->Increment();
  }
  tracer_->Span(kTraceShuttle, shuttle.track, sim_.Now() + leg1.duration, pick,
                "pick");

  shuttle.job = Shuttle::Job::kVerifyGo;
  shuttle.job_platter = platter;
  shuttle.job_drive = drive_id;
  shuttle.job_event =
      Arm(leg1.duration + pick,
          PendingEvent{kEvVerifyDeliveryPick, shuttle.id, platter,
                       static_cast<uint64_t>(drive_id), delivery_span});
}

void Sim::VerifyDeliveryPick(Shuttle& shuttle, uint64_t platter, int drive_id,
                             Tracer::SpanHandle delivery_span) {
  const Drive& d = drives_[static_cast<size_t>(drive_id)];
  const Leg leg2 = Travel(shuttle, d.pos.x, d.pos.shelf);
  RecordLeg(leg2);
  const double place = motion_.PlaceTime(shuttle.rng);
  result_.travel_energy_total += motion_.PickPlaceEnergy();
  tracer_->Span(kTraceShuttle, shuttle.track, sim_.Now() + leg2.duration, place,
                "place");

  shuttle.job = Shuttle::Job::kVerifyCarry;
  shuttle.job_event =
      Arm(leg2.duration + place,
          PendingEvent{kEvVerifyDeliveryPlace, shuttle.id, platter,
                       static_cast<uint64_t>(drive_id), delivery_span});
}

void Sim::VerifyDeliveryPlace(Shuttle& shuttle, uint64_t platter, int drive_id,
                              Tracer::SpanHandle delivery_span) {
  tracer_->EndSpan(delivery_span, sim_.Now());
  Drive& drive = drives_[static_cast<size_t>(drive_id)];
  drive.verify_incoming = false;
  drive.verify_present = true;
  drive.verify_platter = platter;
  drive.verify_remaining_s = VerifySeconds(drive);
  platters_[platter].state = PlatterInfo::State::kAtDrive;
  if (drive.down) {
    ++platters_[platter].dark;  // captive until the drive is repaired
  } else if (!drive.mounted) {
    StartVerifyClock(drive_id);
  }
  OnShuttleJobDone(shuttle);
}

// ---- background scrub + repair escalation ----

void Sim::OnPlatterAged(int platter) {
  // The injector decided *when* a damage event hits; the twin samples the
  // severity (sectors struck, repair tier needed) from the platter's own forked
  // stream, so the pattern depends only on (seed, platter).
  const uint64_t p = static_cast<uint64_t>(platter);
  Rng& rng = aging_rngs_[p];
  const auto& aging = config_.faults.aging;
  const uint64_t sectors = static_cast<uint64_t>(
      rng.UniformInt(1, std::max(1, aging.max_sectors_per_event)));
  double total_weight = 0.0;
  for (int t = 0; t < kNumRepairTiers; ++t) {
    total_weight += aging.tier_weights[t];
  }
  double u = rng.Uniform(0.0, total_weight > 0.0 ? total_weight : 1.0);
  int tier = 0;
  for (; tier < kNumRepairTiers - 1; ++tier) {
    u -= aging.tier_weights[tier];
    if (u < 0.0) {
      break;
    }
  }
  ++result_.scrub.aging_events;
  result_.scrub.latent_sectors += sectors;
  tracer_->Instant(kTraceScrub, scrub_track_, sim_.Now(), "media_aged",
                   {{"platter", static_cast<double>(p)},
                    {"sectors", static_cast<double>(sectors)},
                    {"tier", static_cast<double>(tier)}});
  PlatterHealth& h = scrub_.health(p);
  if (h.lost) {
    return;  // already written off; further decay changes nothing
  }
  scrub_.RecordDamage(p, static_cast<RepairTier>(tier), sectors);
}

bool Sim::TryDispatchScrubWork(Shuttle& shuttle, int partition) {
  // Find a drive (in this partition for the partitioned policy) with a free
  // verify slot and no delivery already en route, like TryDispatchVerifyWork.
  int target_drive = -1;
  if (partitioned()) {
    for (int d : partitioner_->partitions()[static_cast<size_t>(partition)].drives) {
      const Drive& drive = drives_[static_cast<size_t>(d)];
      if (!drive.down && !drive.verify_present && !drive.verify_incoming &&
          !drive.verified_waiting) {
        target_drive = d;
        break;
      }
    }
  } else {
    for (const auto& drive : drives_) {
      if (!drive.down && !drive.verify_present && !drive.verify_incoming &&
          !drive.verified_waiting) {
        target_drive = drive.id;
        break;
      }
    }
  }
  if (target_drive < 0) {
    return false;
  }
  auto eligible = [this, partition](uint64_t p) {
    if (partitioned() && platters_[p].partition != partition) {
      return false;
    }
    return Accessible(p);
  };
  const auto target = scrub_.SelectPlatter(sim_.Now(), eligible);
  if (!target) {
    return false;
  }
  platters_[*target].state = PlatterInfo::State::kTargeted;
  drives_[static_cast<size_t>(target_drive)].verify_incoming = true;
  shuttle.busy = true;
  NoteShuttleAvailability(shuttle);
  InvalidateStealScanMemo();
  StartScrubFetch(shuttle, *target, target_drive);
  return true;
}

void Sim::StartScrubFetch(Shuttle& shuttle, uint64_t platter, int drive_id) {
  const PlatterInfo& info = platters_[platter];
  const auto fetch_span = tracer_->BeginSpan(
      kTraceShuttle, shuttle.track, sim_.Now(), "scrub_fetch",
      {{"platter", static_cast<double>(platter)},
       {"drive", static_cast<double>(drive_id)}});
  const Leg leg1 = Travel(shuttle, info.x, info.shelf);
  RecordLeg(leg1);
  const double pick = motion_.PickTime(shuttle.rng);
  result_.travel_energy_total += motion_.PickPlaceEnergy();
  ++result_.platter_operations;
  if (c_platter_ops_ != nullptr) {
    c_platter_ops_->Increment();
  }
  tracer_->Span(kTraceShuttle, shuttle.track, sim_.Now() + leg1.duration, pick,
                "pick");

  shuttle.job = Shuttle::Job::kScrubGo;
  shuttle.job_platter = platter;
  shuttle.job_drive = drive_id;
  shuttle.job_event =
      Arm(leg1.duration + pick,
          PendingEvent{kEvScrubPick, shuttle.id, platter,
                       static_cast<uint64_t>(drive_id), fetch_span});
}

void Sim::ScrubPick(Shuttle& shuttle, uint64_t platter, int drive_id,
                    Tracer::SpanHandle fetch_span) {
  const Drive& d = drives_[static_cast<size_t>(drive_id)];
  const Leg leg2 = Travel(shuttle, d.pos.x, d.pos.shelf);
  RecordLeg(leg2);
  const double place = motion_.PlaceTime(shuttle.rng);
  result_.travel_energy_total += motion_.PickPlaceEnergy();
  tracer_->Span(kTraceShuttle, shuttle.track, sim_.Now() + leg2.duration, place,
                "place");

  shuttle.job = Shuttle::Job::kScrubCarry;
  shuttle.job_event =
      Arm(leg2.duration + place,
          PendingEvent{kEvScrubPlace, shuttle.id, platter,
                       static_cast<uint64_t>(drive_id), fetch_span});
}

void Sim::ScrubPlace(Shuttle& shuttle, uint64_t platter, int drive_id,
                     Tracer::SpanHandle fetch_span) {
  tracer_->EndSpan(fetch_span, sim_.Now());
  drives_[static_cast<size_t>(drive_id)].verify_incoming = false;
  platters_[platter].state = PlatterInfo::State::kAtDrive;
  BeginScrubPass(drive_id, platter);
  OnShuttleJobDone(shuttle);
}

void Sim::BeginScrubPass(int drive_id, uint64_t platter) {
  Drive& drive = drives_[static_cast<size_t>(drive_id)];
  drive.verify_present = true;
  drive.verify_platter = platter;
  drive.verify_remaining_s = ScrubSeconds(drive);
  drive.scrubbing = true;
  drive.scrub_repairing = false;
  tracer_->Instant(kTraceScrub, scrub_track_, sim_.Now(), "scrub_start",
                   {{"platter", static_cast<double>(platter)},
                    {"drive", static_cast<double>(drive_id)}});
  if (drive.down) {
    ++platters_[platter].dark;  // captive until the drive is repaired
  } else if (!drive.mounted) {
    StartVerifyClock(drive_id);
  }
}

void Sim::OnScrubPassComplete(int drive_id) {
  Drive& drive = drives_[static_cast<size_t>(drive_id)];
  const uint64_t platter = drive.verify_platter;
  if (drive.scrub_repairing) {
    // The inline-repair phase's drive time elapsed; commit the ledger.
    double cost = 0.0;
    for (int t = 0; t < kNumRepairTiers - 1; ++t) {
      cost += static_cast<double>(drive.scrub_pending[t]) *
              config_.scrub.repair_read_factor[t] * SectorSeconds(drive);
    }
    result_.scrub.repair_read_seconds += cost;
    ApplyScrubRepairs(drive_id);
    return;
  }
  // Detection pass: the drive has now actually read (a sample of) the platter,
  // so its latent damage — whatever tier it needs — becomes visible.
  ++result_.scrub.scrubs_completed;
  if (c_scrub_passes_ != nullptr) {
    c_scrub_passes_->Increment();
  }
  result_.scrub.scrub_read_seconds += ScrubSeconds(drive);
  PlatterHealth& h = scrub_.health(platter);
  const uint64_t damage = h.TotalLatent();
  tracer_->Instant(kTraceScrub, scrub_track_, sim_.Now(), "scrub_complete",
                   {{"platter", static_cast<double>(platter)},
                    {"damage", static_cast<double>(damage)}});
  if (damage == 0) {
    FinishScrub(drive_id);
    return;
  }
  ++result_.scrub.scrub_detections;
  if (c_scrub_detections_ != nullptr) {
    c_scrub_detections_->Increment();
  }
  result_.scrub.ledger.detected += damage;
  // Snapshot the found damage and zero the health buckets: aging that lands
  // while the repair is in flight belongs to the *next* detection (otherwise
  // repaired could exceed detected and the ledger would not conserve).
  for (int t = 0; t < kNumRepairTiers; ++t) {
    drive.scrub_pending[t] = h.latent[t];
    h.latent[t] = 0;
  }
  if (lazy_.config().enabled) {
    // Lazy mode: on-platter tiers queue for the budgeted repair pump instead of
    // billing the detecting drive's verify clock inline. The verify clock is
    // NOT charged here — the byte budget is the repair capacity, so the cost
    // is billed exactly once, at drain time (no double spend against the idle
    // capacity scrubbing already used for the detection read). Tier-3 still
    // rebuilds eagerly: a whole-platter loss is the last line of defense.
    for (int t = 0; t < kNumRepairTiers - 1; ++t) {
      const uint64_t n = drive.scrub_pending[t];
      drive.scrub_pending[t] = 0;
      if (n > 0) {
        AdmitLazyRepair(platter, t, n, drive_id);
      }
    }
    const uint64_t tier3 = drive.scrub_pending[kNumRepairTiers - 1];
    drive.scrub_pending[kNumRepairTiers - 1] = 0;
    FinishScrub(drive_id);
    if (tier3 > 0) {
      StartRebuild(platter, tier3);
    }
    return;
  }
  double cost = 0.0;
  for (int t = 0; t < kNumRepairTiers - 1; ++t) {
    cost += static_cast<double>(drive.scrub_pending[t]) *
            config_.scrub.repair_read_factor[t] * SectorSeconds(drive);
  }
  if (cost > 0.0) {
    // On-platter tiers repair inline at the drive: extra reads billed on the
    // verify clock, so customer traffic still preempts via the fast switch.
    drive.scrub_repairing = true;
    drive.verify_remaining_s = cost;
    if (!drive.down && !drive.mounted) {
      StartVerifyClock(drive_id);
    }
    return;
  }
  ApplyScrubRepairs(drive_id);
}

void Sim::ApplyScrubRepairs(int drive_id) {
  Drive& drive = drives_[static_cast<size_t>(drive_id)];
  const uint64_t platter = drive.verify_platter;
  for (int t = 0; t < kNumRepairTiers - 1; ++t) {
    const uint64_t n = drive.scrub_pending[t];
    drive.scrub_pending[t] = 0;
    if (n == 0) {
      continue;
    }
    result_.scrub.ledger.Add(static_cast<RepairTier>(t), n);
    if (c_repair_sectors_[t] != nullptr) {
      c_repair_sectors_[t]->Increment(static_cast<double>(n));
    }
  }
  const uint64_t tier3 = drive.scrub_pending[kNumRepairTiers - 1];
  drive.scrub_pending[kNumRepairTiers - 1] = 0;
  FinishScrub(drive_id);
  if (tier3 > 0) {
    StartRebuild(platter, tier3);
  }
}

void Sim::FinishScrub(int drive_id) {
  Drive& drive = drives_[static_cast<size_t>(drive_id)];
  const uint64_t platter = drive.verify_platter;
  drive.scrubbing = false;
  drive.scrub_repairing = false;
  drive.verify_present = false;
  if (config_.library.policy == Policy::kNoShuttles) {
    platters_[platter].state = PlatterInfo::State::kStored;
    NoteAccessibilityImproved(platter);
  } else {
    // The platter waits in the verify slot for a shuttle to store it, exactly
    // like a freshly verified written platter.
    drive.verified_waiting = true;
    const int p = partitioned() ? platters_[platter].partition : 0;
    returns_[static_cast<size_t>(p)].push_back(
        ReturnJob{.platter = platter, .drive = drive_id, .verify_slot = true,
                  .scrub = true});
    ++returns_pending_;
  }
  TryDispatchAll();
}

void Sim::StartRebuild(uint64_t platter, uint64_t sectors) {
  PlatterHealth& h = scrub_.health(platter);
  h.rebuilding = true;
  rebuilds_[platter] = Rebuild{sectors, 0};
  ++result_.scrub.rebuilds_started;
  // Reads of the platter degrade into recovery fan-out while it rebuilds, via
  // the same dark-platter path a rack outage uses.
  ++platters_[platter].dark;
  tracer_->AsyncBegin(kTraceScrub, 0x2EB0000000ull + platter, sim_.Now(),
                      "rebuild");
  TryRebuildReads(platter);
}

void Sim::TryRebuildReads(uint64_t platter) {
  auto it = rebuilds_.find(platter);
  if (it == rebuilds_.end()) {
    return;
  }
  // Gather readable set peers, exactly like FanOutRecovery — but a rebuild
  // needs a full complement of I_p peers to reconstruct the platter.
  const PlatterInfo& target = platters_[platter];
  std::vector<uint64_t> candidates;
  const uint64_t info = config_.num_info_platters;
  const uint64_t set = target.set;
  const uint64_t set_first = set * static_cast<uint64_t>(config_.platter_set_info);
  const uint64_t set_last = std::min<uint64_t>(
      set_first + static_cast<uint64_t>(config_.platter_set_info), info);
  for (uint64_t p = set_first; p < set_last; ++p) {
    if (p != platter && Servable(p)) {
      candidates.push_back(p);
    }
  }
  for (int r = 0; r < config_.platter_set_redundancy; ++r) {
    const uint64_t p =
        info + set * static_cast<uint64_t>(config_.platter_set_redundancy) +
        static_cast<uint64_t>(r);
    if (p < platters_.size() && Servable(p)) {
      candidates.push_back(p);
    }
  }
  const size_t needed = static_cast<size_t>(config_.platter_set_info);
  if (candidates.size() < needed) {
    Rebuild& rebuild = it->second;
    if (rebuild.attempt >= config_.scrub.max_rebuild_retries) {
      FailRebuild(platter);
      return;
    }
    const double delay =
        std::min(config_.scrub.rebuild_backoff_cap_s,
                 config_.scrub.rebuild_backoff_base_s *
                     std::ldexp(1.0, rebuild.attempt));
    ++rebuild.attempt;
    ++result_.scrub.rebuild_retries;
    Arm(delay, PendingEvent{kEvRebuildRetry, 0, platter});
    return;
  }
  const uint64_t parent_id = next_sub_id_++;
  rebuild_parent_of_[parent_id] = platter;
  parents_[parent_id] = ParentState{sim_.Now(), static_cast<int>(needed), 0};
  const uint64_t bytes =
      config_.media.payload_bytes_per_track() *
      static_cast<uint64_t>(config_.media.info_tracks_per_platter);
  for (size_t i = 0; i < needed; ++i) {
    ReadRequest sub;
    sub.id = next_sub_id_++;
    sub.parent = parent_id;
    sub.platter = candidates[i];
    sub.bytes = bytes;  // a rebuild streams each peer's full payload
    sub.arrival = sim_.Now();
    tracer_->AsyncBegin(kTraceScheduler, sub.id, sim_.Now(), "recovery_read");
    sched_.Submit(SchedulerOf(sub.platter), sub);
    ++result_.scrub.rebuild_reads;
    if (c_rebuild_reads_ != nullptr) {
      c_rebuild_reads_->Increment();
    }
  }
  TryDispatchAll();
}

void Sim::OnRebuildReadsDone(uint64_t platter, bool failed) {
  auto it = rebuilds_.find(platter);
  if (it == rebuilds_.end()) {
    return;
  }
  if (failed) {
    // Some peer read was given up on; back off and retry the whole gather.
    Rebuild& rebuild = it->second;
    if (rebuild.attempt >= config_.scrub.max_rebuild_retries) {
      FailRebuild(platter);
      return;
    }
    const double delay =
        std::min(config_.scrub.rebuild_backoff_cap_s,
                 config_.scrub.rebuild_backoff_base_s *
                     std::ldexp(1.0, rebuild.attempt));
    ++rebuild.attempt;
    ++result_.scrub.rebuild_retries;
    Arm(delay, PendingEvent{kEvRebuildRetry, 0, platter});
    return;
  }
  // All peers read: write and verify the replacement platter, then swap it in.
  Arm(config_.scrub.rebuild_write_s, PendingEvent{kEvRebuildWrite, 0, platter});
}

void Sim::CompleteRebuild(uint64_t platter) {
  auto it = rebuilds_.find(platter);
  if (it == rebuilds_.end()) {
    return;
  }
  const uint64_t sectors = it->second.sectors;
  rebuilds_.erase(it);
  PlatterHealth& h = scrub_.health(platter);
  h.rebuilding = false;
  if (platters_[platter].dark > 0) {
    --platters_[platter].dark;
  }
  NoteAccessibilityImproved(platter);
  result_.scrub.ledger.Add(RepairTier::kPlatterSet, sectors);
  if (c_repair_sectors_[kNumRepairTiers - 1] != nullptr) {
    c_repair_sectors_[kNumRepairTiers - 1]->Increment(
        static_cast<double>(sectors));
  }
  ++result_.scrub.rebuilds_completed;
  // The rebuild rewrote the whole platter, so any repairs still queued for it
  // are subsumed: they reach the ledger as platter-set repairs, not drained
  // queue traffic.
  EvictLazyRepairs(platter, /*platter_lost=*/false);
  tracer_->AsyncEnd(kTraceScrub, 0x2EB0000000ull + platter, sim_.Now(),
                    "rebuild");
  TryDispatchAll();
}

void Sim::FailRebuild(uint64_t platter) {
  auto it = rebuilds_.find(platter);
  const uint64_t sectors = it->second.sectors;
  rebuilds_.erase(it);
  PlatterHealth& h = scrub_.health(platter);
  h.rebuilding = false;
  h.lost = true;  // written off: never scrubbed or rebuilt again
  if (platters_[platter].dark > 0) {
    --platters_[platter].dark;
  }
  NoteAccessibilityImproved(platter);
  result_.scrub.ledger.unrecoverable += sectors;
  result_.scrub.ledger.bytes_lost +=
      sectors * static_cast<uint64_t>(config_.media.payload_bytes_per_sector());
  if (c_repair_unrecoverable_ != nullptr) {
    c_repair_unrecoverable_->Increment(static_cast<double>(sectors));
  }
  // Repairs still queued for a written-off platter can never run: they join
  // the unrecoverable side of the ledger so detected == repaired + unrecoverable
  // holds in lazy mode too.
  EvictLazyRepairs(platter, /*platter_lost=*/true);
  // Local redundancy is exhausted; a federation driver can still source the
  // sectors from a replica library (cross-library repair transfer).
  if (config_.federation != nullptr) {
    ++result_.federation.data_loss_escalations;
    if (config_.federation->on_data_loss) {
      config_.federation->on_data_loss(platter, sectors, sim_.Now());
    }
  }
  tracer_->AsyncEnd(kTraceScrub, 0x2EB0000000ull + platter, sim_.Now(),
                    "rebuild");
  TryDispatchAll();
}

void Sim::RecordCompletion(const ReadRequest& request) {
  ResolveRequest(request, /*failed=*/false);
}

void Sim::RecordFailure(const ReadRequest& request) {
  ResolveRequest(request, /*failed=*/true);
}

void Sim::ResolveRequest(const ReadRequest& request, bool failed) {
  const double now = sim_.Now();
  if (!failed) {
    result_.makespan = std::max(result_.makespan, now);
  }
  // Recovery sub-reads carry ids above next_sub_id_'s base; their async span was
  // opened under "recovery_read", trace-file requests under "request".
  tracer_->AsyncEnd(kTraceScheduler, request.id, now,
                    request.id >= (1ull << 62) ? "recovery_read" : "request");

  // Walk up the fan-in chain: a child's resolution may finish its parent, which
  // may in turn finish the grandparent (e.g. a recovery group completing a
  // shard). A failed child poisons the whole group, but the root still resolves
  // exactly once, when its last child does.
  uint64_t parent = request.parent;
  double arrival = request.arrival;
  // The logical request this resolution finishes: the request itself when it
  // has no fan-in parent, otherwise the topmost group the walk closes. Needed
  // to route federated completions (id >= kFederatedIdBase) back out.
  uint64_t root_id = request.id;
  while (parent != 0) {
    auto it = parents_.find(parent);
    if (it == parents_.end()) {
      return;  // already reported (defensive)
    }
    it->second.failed |= failed;
    if (--it->second.remaining > 0) {
      return;  // siblings still in flight
    }
    failed = it->second.failed;
    arrival = it->second.arrival;
    const uint64_t finished = parent;
    root_id = finished;
    parent = it->second.up;
    parents_.erase(it);
    // A rebuild's synthetic fan-in parent resolves out-of-band: it is
    // maintenance traffic, not a customer request, so it must not touch the
    // completed/failed ledger (completed + failed == total stays intact).
    auto rebuild = rebuild_parent_of_.find(finished);
    if (rebuild != rebuild_parent_of_.end()) {
      const uint64_t target = rebuild->second;
      rebuild_parent_of_.erase(rebuild);
      OnRebuildReadsDone(target, failed);
      return;
    }
  }
  if (failed) {
    ++result_.requests_failed;
    if (c_req_failed_ != nullptr) {
      c_req_failed_->Increment();
    }
    NotifyFederatedResolve(root_id, /*failed=*/true);
    MaybeStopInjecting();
    return;
  }
  ++result_.requests_completed;
  if (c_completed_ != nullptr) {
    c_completed_->Increment();
  }
  if (arrival >= config_.measure_start && arrival <= config_.measure_end) {
    result_.completion_times.Add(now - arrival);
    if (h_completion_ != nullptr) {
      h_completion_->Observe(now - arrival);
    }
  }
  NotifyFederatedResolve(root_id, /*failed=*/false);
  MaybeStopInjecting();
}

void Sim::NotifyFederatedResolve(uint64_t root_id, bool failed) {
  if (root_id < kFederatedIdBase || root_id >= (1ull << 62)) {
    return;  // local traffic
  }
  if (failed) {
    ++result_.federation.injected_failed;
  } else {
    ++result_.federation.injected_resolved;
  }
  if (config_.federation != nullptr && config_.federation->on_resolve) {
    config_.federation->on_resolve(root_id, sim_.Now(), failed);
  }
}

// ---- dynamic faults ----

void Sim::AbortShuttleJob(Shuttle& shuttle) {
  sim_.Cancel(shuttle.job_event);
  shuttle.job_event = Simulator::kInvalidEvent;
  const Shuttle::Job job = shuttle.job;
  shuttle.job = Shuttle::Job::kNone;
  if (job == Shuttle::Job::kNone) {
    return;
  }
  ++result_.faults.aborted_shuttle_jobs;
  if (c_aborts_ != nullptr) {
    c_aborts_->Increment();
  }
  tracer_->Instant(kTraceFaults, faults_track_, sim_.Now(), "shuttle_job_aborted",
                   {{"shuttle", static_cast<double>(shuttle.id)}});
  switch (job) {
    case Shuttle::Job::kFetchGo:
      // The platter was never picked: it is still in its slot.
      platters_[shuttle.job_platter].state = PlatterInfo::State::kStored;
      NoteAccessibilityImproved(shuttle.job_platter);
      drives_[static_cast<size_t>(shuttle.job_drive)].input_reserved = false;
      NoteDriveAvailability(shuttle.job_drive);
      break;
    case Shuttle::Job::kFetchCarry:
      drives_[static_cast<size_t>(shuttle.job_drive)].input_reserved = false;
      NoteDriveAvailability(shuttle.job_drive);
      StrandPlatter(shuttle.job_platter, StrandKind::kStore);
      break;
    case Shuttle::Job::kReturnGo: {
      // Not yet at the drive: put the job back at the head of its queue.
      const ReturnJob& job_back = shuttle.job_return;
      const int p = partitioned() ? platters_[job_back.platter].partition : 0;
      returns_[static_cast<size_t>(p)].push_front(job_back);
      ++returns_pending_;
      if (drives_[static_cast<size_t>(job_back.drive)].down) {
        // Re-enters a sealed drive's queue (the shuttle had picked the job
        // before the drive died): mark the platter captive so the repair-time
        // release stays symmetric.
        ++platters_[job_back.platter].dark;
      }
      break;
    }
    case Shuttle::Job::kReturnCarry:
      // Scrubbed platters go back as plain stores: their verify turnaround was
      // recorded at write time, not now.
      StrandPlatter(shuttle.job_return.platter,
                    shuttle.job_return.verify_slot && !shuttle.job_return.scrub
                        ? StrandKind::kStoreVerified
                        : StrandKind::kStore);
      break;
    case Shuttle::Job::kVerifyGo:
      drives_[static_cast<size_t>(shuttle.job_drive)].verify_incoming = false;
      eject_queue_.push_front(shuttle.job_platter);
      break;
    case Shuttle::Job::kVerifyCarry:
      drives_[static_cast<size_t>(shuttle.job_drive)].verify_incoming = false;
      StrandPlatter(shuttle.job_platter, StrandKind::kEject);
      break;
    case Shuttle::Job::kScrubGo:
      // The scrub target was never picked: it stays in its slot and becomes
      // eligible for the next scrub dispatch.
      platters_[shuttle.job_platter].state = PlatterInfo::State::kStored;
      NoteAccessibilityImproved(shuttle.job_platter);
      drives_[static_cast<size_t>(shuttle.job_drive)].verify_incoming = false;
      break;
    case Shuttle::Job::kScrubCarry:
      drives_[static_cast<size_t>(shuttle.job_drive)].verify_incoming = false;
      StrandPlatter(shuttle.job_platter, StrandKind::kStore);
      break;
    case Shuttle::Job::kRecharge:  // the repair includes servicing the battery
    case Shuttle::Job::kNone:
      break;
  }
}

void Sim::StrandPlatter(uint64_t platter, StrandKind kind) {
  // The cargo strands with the dead shuttle; an operator recovers it after a
  // fixed delay (fixed, not sampled, to keep fault runs seed-reproducible).
  ++platters_[platter].dark;
  tracer_->Instant(kTraceFaults, faults_track_, sim_.Now(), "platter_stranded",
                   {{"platter", static_cast<double>(platter)}});
  Arm(config_.faults.stranded_recovery_s,
      PendingEvent{kEvStrandRecovery, static_cast<int32_t>(kind), platter});
}

void Sim::StrandRecovered(uint64_t platter, StrandKind kind) {
  PlatterInfo& p = platters_[platter];
  --p.dark;
  NoteAccessibilityImproved(platter);
  ++result_.faults.stranded_recoveries;
  if (c_stranded_ != nullptr) {
    c_stranded_->Increment();
  }
  switch (kind) {
    case StrandKind::kStore:
      p.state = PlatterInfo::State::kStored;
      break;
    case StrandKind::kStoreVerified: {
      p.state = PlatterInfo::State::kStored;
      const double turnaround = sim_.Now() - p.created_at;
      result_.verify_turnaround.Add(turnaround);
      if (h_verify_turnaround_ != nullptr) {
        h_verify_turnaround_->Observe(turnaround);
      }
      tracer_->AsyncEnd(kTracePipeline, platter, sim_.Now(), "platter_verify");
      break;
    }
    case StrandKind::kEject:
      p.state = PlatterInfo::State::kAtEject;
      eject_queue_.push_front(platter);
      break;
  }
  TryDispatchAll();
}

void Sim::OnShuttleDown(int s) {
  Shuttle& shuttle = shuttles_[static_cast<size_t>(s)];
  tracer_->AsyncBegin(kTraceFaults, 0xFA000000ull + static_cast<uint64_t>(s),
                      sim_.Now(), "shuttle_outage");
  if (shuttle.failed) {
    return;  // already out (overlap with a legacy scripted failure)
  }
  shuttle.failed = true;
  if (shuttle.busy) {
    AbortShuttleJob(shuttle);
    shuttle.busy = false;
  }
  NoteShuttleAvailability(shuttle);
  RefreshPartitionDistress(shuttle.partition);
  if (config_.faults.shuttle.repair == nullptr && !shuttles_.empty()) {
    // Fail-stop fleet loss: once no shuttle can ever return, nothing makes
    // progress, so keeping the other renewal processes alive would only keep
    // the run from draining.
    bool any_alive = false;
    for (const auto& other : shuttles_) {
      any_alive |= !other.failed;
    }
    if (!any_alive && injector_ != nullptr) {
      injector_->StopInjecting();
    }
  }
  TryDispatchAll();
}

void Sim::OnShuttleRepaired(int s) {
  Shuttle& shuttle = shuttles_[static_cast<size_t>(s)];
  tracer_->AsyncEnd(kTraceFaults, 0xFA000000ull + static_cast<uint64_t>(s),
                    sim_.Now(), "shuttle_outage");
  shuttle.failed = false;
  shuttle.busy = false;
  shuttle.battery = config_.library.shuttle_battery_capacity;  // serviced too
  NoteShuttleAvailability(shuttle);
  RefreshPartitionDistress(shuttle.partition);
  TryDispatchAll();
}

void Sim::OnDriveDown(int d) {
  Drive& drive = drives_[static_cast<size_t>(d)];
  tracer_->AsyncBegin(kTraceFaults, 0xD0000000ull + static_cast<uint64_t>(d),
                      sim_.Now(), "drive_outage");
  drive.down = true;
  NoteDriveAvailability(d);
  if (partitioner_ != nullptr) {
    for (int p : drive_partitions_[static_cast<size_t>(d)]) {
      RefreshPartitionDistress(p);
    }
  }
  // Abort the in-flight customer read, refund its unspent seconds, and put the
  // request back at the head of its platter group (arrival order preserved).
  if (drive.read_event != Simulator::kInvalidEvent) {
    sim_.Cancel(drive.read_event);
    drive.read_event = Simulator::kInvalidEvent;
    drive.read_s -= std::max(0.0, drive.read_started + drive.read_cost - sim_.Now());
    sched_.Requeue(SchedulerOf(drive.inflight.platter), drive.inflight);
    drive.resume_pending = true;
  }
  PauseVerifyClock(d);
  // Every platter inside is captive until repair: reads route around it, either
  // waiting out the backoff budget or amplifying into recovery.
  ForEachPlatterInDrive(drive, [this](uint64_t platter) {
    ++platters_[platter].dark;
    EnsureRetry(platter);
  });
  if (config_.faults.drive.repair == nullptr && injector_ != nullptr) {
    bool any_alive = false;
    for (const auto& other : drives_) {
      any_alive |= !other.down;
    }
    if (!any_alive) {
      injector_->StopInjecting();  // fail-stop loss of every drive: see above
    }
  }
  TryDispatchAll();
}

void Sim::OnDriveRepaired(int d) {
  Drive& drive = drives_[static_cast<size_t>(d)];
  if (!drive.down) {
    return;
  }
  drive.down = false;
  NoteDriveAvailability(d);
  tracer_->AsyncEnd(kTraceFaults, 0xD0000000ull + static_cast<uint64_t>(d),
                    sim_.Now(), "drive_outage");
  if (partitioner_ != nullptr) {
    for (int p : drive_partitions_[static_cast<size_t>(d)]) {
      RefreshPartitionDistress(p);
    }
  }
  ForEachPlatterInDrive(drive, [this](uint64_t platter) {
    if (platters_[platter].dark > 0) {
      --platters_[platter].dark;
      NoteAccessibilityImproved(platter);
    }
  });
  if (drive.mounted && drive.resume_pending) {
    // Resume the interrupted session; if its queue was converted to recovery in
    // the meantime this finds it empty and unmounts normally.
    drive.resume_pending = false;
    ServeNext(d, drive.mounted_platter);
  } else if (!drive.mounted) {
    TryStartSession(d);
    if (!drive.mounted) {
      StartVerifyClock(d);
    }
  }
  TryDispatchAll();
}

void Sim::OnRackDown(int r) {
  tracer_->AsyncBegin(kTraceFaults, 0x2AC00000ull + static_cast<uint64_t>(r),
                      sim_.Now(), "rack_outage");
  auto& darkened = rack_darkened_[static_cast<size_t>(r)];
  for (uint64_t i = 0; i < platters_.size(); ++i) {
    PlatterInfo& p = platters_[i];
    if (p.slot.rack == r && p.state == PlatterInfo::State::kStored) {
      ++p.dark;
      darkened.push_back(i);
      EnsureRetry(i);
    }
  }
  // In-flight fetches that have not picked their platter yet lose access to it;
  // the (healthy) shuttle abandons the job and frees up. Platters already in a
  // shuttle's grip escape the blast zone.
  for (auto& shuttle : shuttles_) {
    if (shuttle.failed || !shuttle.busy ||
        (shuttle.job != Shuttle::Job::kFetchGo &&
         shuttle.job != Shuttle::Job::kScrubGo)) {
      continue;
    }
    const uint64_t platter = shuttle.job_platter;
    if (platters_[platter].slot.rack != r) {
      continue;
    }
    AbortShuttleJob(shuttle);  // state -> kStored, input reservation freed
    shuttle.busy = false;
    NoteShuttleAvailability(shuttle);
    ++platters_[platter].dark;
    darkened.push_back(platter);
    EnsureRetry(platter);
  }
  TryDispatchAll();
}

void Sim::OnRackRepaired(int r) {
  tracer_->AsyncEnd(kTraceFaults, 0x2AC00000ull + static_cast<uint64_t>(r),
                    sim_.Now(), "rack_outage");
  auto& darkened = rack_darkened_[static_cast<size_t>(r)];
  for (uint64_t platter : darkened) {
    if (platters_[platter].dark > 0) {
      --platters_[platter].dark;
      NoteAccessibilityImproved(platter);
    }
  }
  darkened.clear();
  TryDispatchAll();
}

void Sim::EnsureRetry(uint64_t platter) {
  if (injector_ == nullptr || retry_pending_.count(platter) != 0) {
    return;
  }
  if (Servable(platter) ||
      !sched_.HasRequests(SchedulerOf(platter), platter)) {
    return;
  }
  retry_pending_.insert(platter);
  ScheduleRetryProbe(platter, 0);
}

void Sim::ScheduleRetryProbe(uint64_t platter, int attempt) {
  const double delay =
      std::min(config_.faults.retry_backoff_cap_s,
               config_.faults.retry_backoff_base_s * std::ldexp(1.0, attempt));
  Arm(delay, PendingEvent{kEvRetryProbe, attempt, platter});
}

void Sim::OnRetryProbe(uint64_t platter, int attempt) {
  ++result_.faults.dark_retries;
  if (c_dark_retries_ != nullptr) {
    c_dark_retries_->Increment();
  }
  if (!sched_.HasRequests(SchedulerOf(platter), platter)) {
    retry_pending_.erase(platter);  // served or converted through another path
    return;
  }
  if (Servable(platter)) {
    retry_pending_.erase(platter);
    TryDispatchAll();
    return;
  }
  if (attempt + 1 >= config_.faults.max_retries) {
    retry_pending_.erase(platter);
    ConvertToRecovery(platter);
    return;
  }
  ScheduleRetryProbe(platter, attempt + 1);
}

void Sim::ConvertToRecovery(uint64_t platter) {
  // The backoff budget ran out: the platter's queued reads amplify into
  // platter-set recovery, exactly as a statically unavailable platter's do at
  // arrival. A read with no readable candidates either is given up on.
  auto taken = sched_.TakeRequests(SchedulerOf(platter), platter, /*all=*/true);
  tracer_->Instant(kTraceFaults, faults_track_, sim_.Now(), "convert_to_recovery",
                   {{"platter", static_cast<double>(platter)},
                    {"requests", static_cast<double>(taken.size())}});
  for (const auto& request : taken) {
    ++result_.faults.converted_requests;
    if (c_converted_ != nullptr) {
      c_converted_->Increment();
    }
    // A recovery (or rebuild) sub-read that itself ran out of backoff must
    // not amplify again: its candidates are the same set members the outer
    // group is already reading, so re-fanning adds no information — and under
    // a sustained fault storm the recursion amplifies without bound (the
    // workload never resolves, so injection never stops: live-lock). The
    // failed child poisons its fan-in group and the root resolves exactly
    // once; rebuild groups re-probe through their own bounded backoff.
    if (request.id >= (1ull << 62)) {
      RecordFailure(request);
      continue;
    }
    if (!FanOutRecovery(request)) {
      RecordFailure(request);
    }
  }
  TryDispatchAll();
}

bool Sim::WorkloadUnresolved() const {
  if (result_.requests_completed + result_.requests_failed <
      result_.requests_total) {
    return true;
  }
  if (explicit_writes()) {
    const double interval = 3600.0 / EffectiveWriteRate();
    if (result_.platters_verified < result_.platters_written ||
        sim_.Now() + interval <= config_.write_until) {
      return true;  // the write pipeline is still producing or verifying
    }
  }
  return false;
}

void Sim::MaybeStopInjecting() {
  if (injector_ == nullptr || WorkloadUnresolved()) {
    return;
  }
  injector_->StopInjecting();
}

void Sim::ApplyScriptedShuttleFailure(int id) {
  shuttles_[static_cast<size_t>(id)].failed = true;
  NoteShuttleAvailability(shuttles_[static_cast<size_t>(id)]);
  RefreshPartitionDistress(shuttles_[static_cast<size_t>(id)].partition);
  TryDispatchAll();  // remaining shuttles pick up the slack
}

void Sim::ScheduleRepartitionTick() {
  Arm(config_.library.repartition_interval_s,
      PendingEvent{kEvRepartitionTick});
}

void Sim::RepartitionTick() {
  const int n = partitioner_->size();
  const double alpha = config_.library.repartition_ewma_alpha;
  double total = 0.0;
  for (int p = 0; p < n; ++p) {
    partition_ewma_[static_cast<size_t>(p)] =
        (1.0 - alpha) * partition_ewma_[static_cast<size_t>(p)] +
        alpha * static_cast<double>(sched_.queued_bytes(p));
    total += partition_ewma_[static_cast<size_t>(p)];
  }
  const double mean = total / static_cast<double>(n);
  if (mean > 0.0) {
    // One shift per tick: the hottest partition above the hi band trades a
    // quarter-width slice to its coldest qualifying same-row neighbour.
    // (Shifting every hot partition per tick was tried and oscillates — the
    // EWMA lags the rectangle moves, so clusters over-correct.)
    int hot = -1;
    double hot_ewma = 0.0;
    for (int p = 0; p < n; ++p) {
      const double e = partition_ewma_[static_cast<size_t>(p)];
      if (e > config_.library.repartition_hi * mean && e > hot_ewma) {
        hot_ewma = e;
        hot = p;
      }
    }
    if (hot >= 0) {
      // Coldest qualifying neighbour (left wins ties via strict <).
      int cold = -1;
      double cold_ewma = 1e300;
      for (int cand : {partitioner_->LeftNeighborOf(hot),
                       partitioner_->RightNeighborOf(hot)}) {
        if (cand < 0) {
          continue;
        }
        const double e = partition_ewma_[static_cast<size_t>(cand)];
        if (e < config_.library.repartition_lo * mean && e < cold_ewma) {
          cold_ewma = e;
          cold = cand;
        }
      }
      if (cold >= 0 && partitioner_->ShiftBoundary(hot, cold)) {
        ++result_.repartitions;
        result_.repartition_history.push_back({sim_.Now(), hot, cold});
        tracer_->Instant(kTraceScheduler, sched_track_, sim_.Now(),
                         "repartition",
                         {{"hot", static_cast<double>(hot)},
                          {"cold", static_cast<double>(cold)}});
        MigratePlatterPartitions();
        TryDispatchAll();
      }
    }
  }
  if (WorkloadUnresolved()) {
    ScheduleRepartitionTick();
  }
}

void Sim::MigratePlatterPartitions() {
  for (uint64_t i = 0; i < platters_.size(); ++i) {
    PlatterInfo& info = platters_[i];
    const int now_p = partitioner_->PartitionOfSlot(info.x, info.shelf);
    if (now_p == info.partition) {
      continue;
    }
    const int from = info.partition;
    info.partition = now_p;
    sched_.MigrateQueue(i, from, now_p);
  }
}

void Sim::Prologue() {
  if (!restored_) {
    // Register trace-level fan-in groups (sharded large files).
    for (const auto& request : trace_) {
      if (request.parent != 0) {
        auto [it, inserted] = parents_.try_emplace(
            request.parent, ParentState{request.arrival, 0, 0});
        ++it->second.remaining;
        it->second.arrival = std::min(it->second.arrival, request.arrival);
      }
    }
    // requests_total counts logical requests: unsharded reads plus one per
    // shard group.
    result_.requests_total = parents_.size();
    for (uint64_t i = 0; i < trace_.size(); ++i) {
      const ReadRequest& request = trace_[i];
      if (request.platter >= config_.num_info_platters) {
        throw std::invalid_argument("Sim: trace references unknown platter");
      }
      ArmAt(request.arrival, PendingEvent{kEvArrival, 0, i});
      if (request.parent == 0) {
        ++result_.requests_total;
      }
    }
    if (explicit_writes()) {
      Arm(0.0, PendingEvent{kEvProduceWrite});
    }
    for (const auto& [when, id] : config_.shuttle_failures) {
      if (id >= 0 && id < static_cast<int>(shuttles_.size())) {
        ArmAt(when, PendingEvent{kEvScriptedShuttleFail, id});
      }
    }
    if (config_.fleet_loss_fraction != 0.0) {
      if (config_.fleet_loss_fraction < 0.0 ||
          config_.fleet_loss_fraction >= 1.0) {
        throw std::invalid_argument("Sim: fleet_loss_fraction must be in [0, 1)");
      }
      // Highest ids first, so survivors keep their partition assignments.
      const int lost = static_cast<int>(config_.fleet_loss_fraction *
                                        static_cast<double>(shuttles_.size()));
      for (int i = 0; i < lost; ++i) {
        const int id = static_cast<int>(shuttles_.size()) - 1 - i;
        ArmAt(0.0, PendingEvent{kEvScriptedShuttleFail, id});
      }
    }
    if (config_.blackout_partition >= 0) {
      if (!partitioned() || config_.blackout_partition >= partitioner_->size()) {
        throw std::invalid_argument(
            "Sim: blackout_partition needs the partitioned policy and a valid "
            "partition index");
      }
      if (config_.blackout_duration_s <= 0.0) {
        throw std::invalid_argument("Sim: blackout_duration_s must be > 0");
      }
      // The fire bodies read the partition's (immutable) drive list directly,
      // so the events carry no payload.
      ArmAt(config_.blackout_start_s, PendingEvent{kEvBlackoutStart});
      ArmAt(config_.blackout_start_s + config_.blackout_duration_s,
            PendingEvent{kEvBlackoutEnd});
    }
    if (partitioned() && config_.library.repartition_interval_s > 0.0) {
      ScheduleRepartitionTick();
    }
    if (lazy_.config().enabled) {
      lazy_drain_scheduled_ = true;
      Arm(lazy_.config().drain_interval_s, PendingEvent{kEvLazyDrain});
    }
    if (injector_ != nullptr &&
        (result_.requests_total > 0 || explicit_writes())) {
      // Nothing to injure on an empty workload — and the renewal processes
      // would keep the event queue alive forever.
      injector_->Start();
    }
  }
}

void Sim::InjectArrival(const ReadRequest& request, double when) {
  if (track_) {
    throw std::logic_error(
        "Sim::InjectArrival: federated injection cannot be checkpointed");
  }
  if (request.id < kFederatedIdBase || request.id >= (1ull << 62)) {
    throw std::invalid_argument(
        "Sim::InjectArrival: id must be in the federated range");
  }
  if (request.parent != 0) {
    throw std::invalid_argument("Sim::InjectArrival: parent must be 0");
  }
  if (request.platter >= config_.num_info_platters) {
    throw std::invalid_argument(
        "Sim::InjectArrival: request references unknown platter");
  }
  const uint64_t index = fed_requests_.size();
  fed_requests_.push_back(request);
  ArmAt(when, PendingEvent{kEvFederatedArrival, 0, index});
  // Injected reads are logical requests of this library: they ride the same
  // completed + failed == total conservation as local traffic.
  ++result_.requests_total;
  ++result_.federation.injected_arrivals;
}

void Sim::InjectReplicatedPlatter(double when) {
  if (track_) {
    throw std::logic_error(
        "Sim::InjectReplicatedPlatter: federated injection cannot be "
        "checkpointed");
  }
  if (!explicit_writes()) {
    throw std::logic_error(
        "Sim::InjectReplicatedPlatter: needs the explicit write pipeline "
        "(write_platters_per_hour > 0)");
  }
  ArmAt(when, PendingEvent{kEvFederatedWrite});
}

LibrarySimResult Sim::Run(double checkpoint_at,
                          std::vector<uint8_t>* checkpoint_out) {
  Prologue();
  if (checkpoint_out != nullptr) {
    // Run to the snapshot point, serialize, and keep going: the capture run's
    // own results stay byte-identical to an uninterrupted run.
    sim_.Run(checkpoint_at);
    StateWriter w;
    Visit(w);
    *checkpoint_out = w.Take();
  }
  sim_.Run();
  return Finish();
}

LibrarySimResult Sim::Finish() {
  // Cumulative, so a restored run reports the same total as the uninterrupted
  // one (Simulator::Restore seeds the pre-snapshot count).
  result_.events_executed = sim_.events_executed();

  // Flush drive ledgers to the makespan.
  const double end = std::max(result_.makespan, sim_.Now());
  for (auto& drive : drives_) {
    if (drive.verifying) {
      drive.verify_s += std::max(0.0, end - drive.verify_since);
      drive.verify_since = end;
      tracer_->EndSpan(drive.verify_span, end);
      drive.verify_span = Tracer::kInvalidSpan;
    }
    result_.drive_read_seconds += drive.read_s;
    result_.drive_verify_seconds += drive.verify_s;
    result_.drive_switch_seconds += drive.switch_s;
    const double accounted = drive.read_s + drive.verify_s + drive.switch_s;
    result_.drive_idle_seconds += std::max(0.0, end - accounted);
  }
  if (injector_ != nullptr) {
    result_.faults.shuttle_failures = injector_->shuttle_stats().failures;
    result_.faults.shuttle_repairs = injector_->shuttle_stats().repairs;
    result_.faults.drive_failures = injector_->drive_stats().failures;
    result_.faults.drive_repairs = injector_->drive_stats().repairs;
    result_.faults.rack_failures = injector_->rack_stats().failures;
    result_.faults.rack_repairs = injector_->rack_stats().repairs;
  }
  if (result_.requests_completed + result_.requests_failed <
      result_.requests_total) {
    // Whatever the drained run could not resolve (e.g. fail-stop loss of the
    // whole fleet) is accounted as failed: completed + failed == total always.
    result_.requests_failed = result_.requests_total - result_.requests_completed;
  }
  // Reconcile the repair ledger on drained runs so it always conserves:
  // inline repairs stuck in a permanently dead drive were in fact recovered by
  // the detection read (only the billed drive time was lost); rebuilds that
  // never finished are data loss.
  for (auto& drive : drives_) {
    for (int t = 0; t < kNumRepairTiers - 1; ++t) {
      if (drive.scrub_pending[t] > 0) {
        result_.scrub.ledger.Add(static_cast<RepairTier>(t),
                                 drive.scrub_pending[t]);
        drive.scrub_pending[t] = 0;
      }
    }
    const uint64_t tier3 = drive.scrub_pending[kNumRepairTiers - 1];
    if (tier3 > 0) {
      drive.scrub_pending[kNumRepairTiers - 1] = 0;
      result_.scrub.ledger.unrecoverable += tier3;
      result_.scrub.ledger.bytes_lost +=
          tier3 *
          static_cast<uint64_t>(config_.media.payload_bytes_per_sector());
    }
  }
  for (auto& [platter, rebuild] : rebuilds_) {
    result_.scrub.ledger.unrecoverable += rebuild.sectors;
    result_.scrub.ledger.bytes_lost +=
        rebuild.sectors *
        static_cast<uint64_t>(config_.media.payload_bytes_per_sector());
    PlatterHealth& h = scrub_.health(platter);
    h.rebuilding = false;
    h.lost = true;
  }
  rebuilds_.clear();
  if (lazy_.config().enabled) {
    // Budget-gated totals first: the settlement below bypasses the budget (the
    // run is over; the backlog was detected, repairable damage and must reach
    // the ledger exactly once), so it must not count against the bandwidth
    // invariant the fault-storm test pins.
    result_.scrub.lazy_drained_bytes = lazy_.drained_bytes();
    result_.scrub.lazy_drained = lazy_.drained();
    result_.scrub.lazy_settled = static_cast<uint64_t>(lazy_.DrainAll(
        sim_.Now(), [this](const LazyRepairEntry& e) { CommitLazyRepair(e); }));
    result_.scrub.lazy_admitted = lazy_.admitted();
  }
  PublishSummaryMetrics();
  return result_;
}

// ---- lazy bandwidth-budgeted repair ----

int Sim::SetFailures(uint64_t platter) {
  // Only platters laid out into sets at setup time belong to one; platters the
  // write pipeline produced later are fresh singletons with full redundancy.
  const uint64_t info = config_.num_info_platters;
  const uint64_t redundancy = static_cast<uint64_t>(config_.platter_set_redundancy);
  const uint64_t num_sets =
      (info + static_cast<uint64_t>(config_.platter_set_info) - 1) /
      static_cast<uint64_t>(config_.platter_set_info);
  if (platter >= info + num_sets * redundancy) {
    return 0;
  }
  const uint64_t set = platters_[platter].set;
  int failures = 0;
  const uint64_t set_first =
      set * static_cast<uint64_t>(config_.platter_set_info);
  const uint64_t set_last = std::min<uint64_t>(
      set_first + static_cast<uint64_t>(config_.platter_set_info), info);
  const auto count = [this, &failures](uint64_t p) {
    const PlatterHealth& h = scrub_.health(p);
    if (h.lost || h.rebuilding) {
      ++failures;
    }
  };
  for (uint64_t p = set_first; p < set_last; ++p) {
    count(p);
  }
  for (uint64_t r = 0; r < redundancy; ++r) {
    const uint64_t p = info + set * redundancy + r;
    if (p < platters_.size()) {
      count(p);
    }
  }
  return failures;
}

void Sim::AdmitLazyRepair(uint64_t platter, int tier, uint64_t sectors,
                          int drive) {
  LazyRepairEntry entry;
  entry.platter = platter;
  entry.remaining_redundancy = config_.platter_set_redundancy -
                               SetFailures(platter);
  entry.tier = static_cast<RepairTier>(tier);
  entry.sectors = sectors;
  // Repair-read traffic: each damaged sector costs factor[t] sector-reads of
  // raw media (gathering NC peers for the deeper tiers).
  const double raw_per_sector =
      static_cast<double>(config_.media.raw_bytes_per_track()) /
      static_cast<double>(config_.media.sectors_per_track());
  entry.bytes = static_cast<uint64_t>(static_cast<double>(sectors) *
                                      config_.scrub.repair_read_factor[tier] *
                                      raw_per_sector);
  entry.drive = drive;
  entry.admitted_at = sim_.Now();
  lazy_.Admit(entry);
  result_.scrub.lazy_peak_queue =
      std::max(result_.scrub.lazy_peak_queue, static_cast<uint64_t>(lazy_.size()));
  tracer_->Instant(kTraceScrub, scrub_track_, sim_.Now(), "lazy_admit",
                   {{"platter", static_cast<double>(platter)},
                    {"tier", static_cast<double>(tier)},
                    {"redundancy", static_cast<double>(entry.remaining_redundancy)}});
  if (!lazy_drain_scheduled_) {
    // The pump stopped (workload resolved or queue went dry); restart it.
    ScheduleLazyDrain();
  }
}

void Sim::ScheduleLazyDrain() {
  lazy_drain_scheduled_ = true;
  Arm(lazy_.config().drain_interval_s, PendingEvent{kEvLazyDrain});
}

void Sim::LazyDrainTick() {
  lazy_drain_scheduled_ = false;
  lazy_.Drain(sim_.Now(),
              [this](const LazyRepairEntry& e) { CommitLazyRepair(e); });
  // Keep pumping while the run is live; once the workload resolves the backlog
  // settles in the epilogue instead, so the drain pump cannot keep the event
  // queue alive forever under a starved budget.
  if (WorkloadUnresolved()) {
    ScheduleLazyDrain();
  }
}

void Sim::CommitLazyRepair(const LazyRepairEntry& entry) {
  const int t = static_cast<int>(entry.tier);
  result_.scrub.ledger.Add(entry.tier, entry.sectors);
  if (c_repair_sectors_[t] != nullptr) {
    c_repair_sectors_[t]->Increment(static_cast<double>(entry.sectors));
  }
  // Maintenance drive-seconds accounting only: the byte budget is the capacity
  // constraint, so no drive verify clock is charged (the no-double-spend half
  // of the scrub/repair capacity unification).
  const Drive& drive =
      drives_[static_cast<size_t>(entry.drive >= 0 ? entry.drive : 0)];
  result_.scrub.repair_read_seconds +=
      static_cast<double>(entry.sectors) *
      config_.scrub.repair_read_factor[t] * SectorSeconds(drive);
}

void Sim::EvictLazyRepairs(uint64_t platter, bool platter_lost) {
  if (!lazy_.config().enabled) {
    return;
  }
  for (const LazyRepairEntry& e : lazy_.Evict(platter)) {
    if (platter_lost) {
      result_.scrub.ledger.unrecoverable += e.sectors;
      result_.scrub.ledger.bytes_lost +=
          e.sectors *
          static_cast<uint64_t>(config_.media.payload_bytes_per_sector());
      if (c_repair_unrecoverable_ != nullptr) {
        c_repair_unrecoverable_->Increment(static_cast<double>(e.sectors));
      }
    } else {
      // Subsumed by a completed tier-3 rebuild of the whole platter.
      result_.scrub.ledger.Add(RepairTier::kPlatterSet, e.sectors);
      if (c_repair_sectors_[kNumRepairTiers - 1] != nullptr) {
        c_repair_sectors_[kNumRepairTiers - 1]->Increment(
            static_cast<double>(e.sectors));
      }
    }
  }
}

// ---- event dispatch + checkpoint/restore ----

void Sim::Fire(const PendingEvent& e) {
  switch (static_cast<EventKind>(e.kind)) {
    case kEvFetchPick:
      FetchPick(shuttles_[static_cast<size_t>(e.a)], e.b,
                static_cast<int>(e.c), e.span);
      break;
    case kEvFetchPlace:
      FetchPlace(shuttles_[static_cast<size_t>(e.a)], e.b,
                 static_cast<int>(e.c), e.span);
      break;
    case kEvReturnPick:
      ReturnPick(shuttles_[static_cast<size_t>(e.a)], UnpackReturnJob(e), e.span);
      break;
    case kEvReturnStore:
      ReturnStore(shuttles_[static_cast<size_t>(e.a)], UnpackReturnJob(e), e.span);
      break;
    case kEvRecharge:
      RechargeDone(shuttles_[static_cast<size_t>(e.a)]);
      break;
    case kEvMountDone:
      ServeNext(e.a, e.b);
      break;
    case kEvReadDone:
      OnReadDone(e.a, e.b);
      break;
    case kEvUnmountDone:
      OnUnmountDone(e.a, e.b);
      break;
    case kEvSwitchBack:
      OnSwitchBack(e.a);
      break;
    case kEvVerifyDone:
      OnVerifyComplete(e.a);
      break;
    case kEvProduceWrite:
      ProduceWrittenPlatter();
      break;
    case kEvVerifyDeliveryPick:
      VerifyDeliveryPick(shuttles_[static_cast<size_t>(e.a)], e.b,
                         static_cast<int>(e.c), e.span);
      break;
    case kEvVerifyDeliveryPlace:
      VerifyDeliveryPlace(shuttles_[static_cast<size_t>(e.a)], e.b,
                          static_cast<int>(e.c), e.span);
      break;
    case kEvScrubPick:
      ScrubPick(shuttles_[static_cast<size_t>(e.a)], e.b,
                static_cast<int>(e.c), e.span);
      break;
    case kEvScrubPlace:
      ScrubPlace(shuttles_[static_cast<size_t>(e.a)], e.b,
                 static_cast<int>(e.c), e.span);
      break;
    case kEvRebuildRetry:
      TryRebuildReads(e.b);
      break;
    case kEvRebuildWrite:
      CompleteRebuild(e.b);
      break;
    case kEvStrandRecovery:
      StrandRecovered(e.b, static_cast<StrandKind>(e.a));
      break;
    case kEvRetryProbe:
      OnRetryProbe(e.b, e.a);
      break;
    case kEvRepartitionTick:
      RepartitionTick();
      break;
    case kEvArrival:
      OnArrival(trace_[e.b]);
      break;
    case kEvScriptedShuttleFail:
      ApplyScriptedShuttleFailure(e.a);
      break;
    case kEvBlackoutStart:
      OnBlackout(true);
      break;
    case kEvBlackoutEnd:
      OnBlackout(false);
      break;
    case kEvLazyDrain:
      LazyDrainTick();
      break;
    case kEvFederatedArrival:
      OnArrival(fed_requests_[e.b]);
      break;
    case kEvFederatedWrite:
      ProduceOnePlatter();
      ++result_.federation.injected_writes;
      break;
    default:
      throw std::logic_error("Sim::Fire: unknown event kind");
  }
}

void Sim::OnBlackout(bool down) {
  // The partition's drive list never mutates after construction, so the events
  // carry no payload and this stays valid across checkpoint/restore.
  const auto& drives =
      partitioner_->partitions()[static_cast<size_t>(config_.blackout_partition)]
          .drives;
  for (int d : drives) {
    if (down) {
      if (!drives_[static_cast<size_t>(d)].down) {
        OnDriveDown(d);
      }
    } else {
      OnDriveRepaired(d);  // no-op if the drive was not down
    }
  }
}

constexpr uint32_t kCheckpointMagic = 0x5117C4B2u;
constexpr uint32_t kCheckpointVersion = 1u;

template <class Ar>
void Sim::Visit(Ar& ar) {
  ar.Check(kCheckpointMagic,
           "Sim checkpoint: bad magic (not a library checkpoint)");
  ar.Check(kCheckpointVersion, "Sim checkpoint: version mismatch");
  // Fingerprint: a checkpoint only makes sense against the identical config +
  // trace; restore rejects mismatches loudly instead of diverging silently.
  ar.Check(config_.seed, "Sim checkpoint: config mismatch (seed)");
  ar.Check(config_.num_info_platters,
           "Sim checkpoint: config mismatch (num_info_platters)");
  ar.Check(config_.platter_set_info,
           "Sim checkpoint: config mismatch (platter_set_info)");
  ar.Check(config_.platter_set_redundancy,
           "Sim checkpoint: config mismatch (platter_set_redundancy)");
  ar.Check(static_cast<int32_t>(config_.library.policy),
           "Sim checkpoint: config mismatch (policy)");
  ar.Check(static_cast<uint64_t>(shuttles_.size()),
           "Sim checkpoint: config mismatch (shuttle count)");
  ar.Check(static_cast<uint64_t>(drives_.size()),
           "Sim checkpoint: config mismatch (drive count)");
  ar.Check(static_cast<uint64_t>(trace_.size()),
           "Sim checkpoint: trace mismatch (request count)");

  EngineState engine;
  if constexpr (!Ar::kLoading) {
    engine = CaptureEngine();
  }
  ar(engine, rng_);
  // The write pipeline appends platters, so the table never shrinks.
  ar.Seq(platters_, platters_.size(), SIZE_MAX,
         "Sim checkpoint: platter count shrank (incompatible snapshot)");
  // One entry per shuttle and drive, so no length goes on the wire.
  for (Shuttle& s : shuttles_) {
    ar(s);
  }
  for (Drive& d : drives_) {
    ar(d);
  }
  ar.Check(partitioner_ != nullptr,
           "Sim checkpoint: config mismatch (partitioner presence)");
  if (partitioner_ != nullptr) {
    ar(*partitioner_);
  }
  ar(sched_);
  ar.Fixed(returns_, "Sim checkpoint: config mismatch (return-queue count)");
  ar(returns_pending_, ready_partitions_, orphaned_partitions_);
  ar.Fixed(partition_distressed_,
           "Sim checkpoint: config mismatch (partition count)");
  ar(distressed_count_);
  ar.Fixed(drive_avail_, "Sim checkpoint: config mismatch (drive count)");
  ar.Fixed(partition_avail_drives_,
           "Sim checkpoint: config mismatch (partition count)");
  ar(steal_noop_cut_, steal_memo_epoch_);
  ar.Fixed(partition_ewma_,
           "Sim checkpoint: config mismatch (partition count)");
  ar.Sorted(parents_);
  ar(eject_queue_, next_sub_id_, rails_);
  ar.Fixed(rack_darkened_, "Sim checkpoint: config mismatch (rack count)");
  ar.Sorted(retry_pending_);
  ar.Check(scrub_.initialized(),
           "Sim checkpoint: config mismatch (scrub presence)");
  if (scrub_.initialized()) {
    ar(scrub_);
  }
  ar.Fixed(aging_rngs_,
           "Sim checkpoint: config mismatch (aging stream count)");
  ar.Sorted(rebuilds_);
  ar.Sorted(rebuild_parent_of_);
  ar.Check(injector_ != nullptr,
           "Sim checkpoint: config mismatch (fault injector presence)");
  if (injector_ != nullptr) {
    ar(*injector_);
  }
  ar(lazy_, lazy_drain_scheduled_, result_);
  // Metric registry counts are cumulative and flushed exactly once (in
  // PublishSummaryMetrics), so the restored run's single end-flush pushes the
  // full totals — matching an uninterrupted run byte-for-byte.
  ar.Check(tel_ != nullptr,
           "Sim checkpoint: config mismatch (telemetry presence)");
  if (tel_ != nullptr) {
    ar(tel_->metrics);
  }

  if constexpr (Ar::kLoading) {
    if (!ar.AtEnd()) {
      throw std::runtime_error("Sim checkpoint: trailing bytes after snapshot");
    }
    RearmEngine(engine);
  }
}

Sim::EngineState Sim::CaptureEngine() {
  EngineState engine;
  // Settle first so the cancelled count matches the live queue.
  sim_.SettleCancelled();
  engine.now = sim_.Now();
  engine.executed = sim_.events_executed();
  engine.cancelled = sim_.events_cancelled();
  engine.scheduled = sim_.events_scheduled();

  // Calendar queue, as descriptors, sorted by original event id: re-arming in
  // this order on a fresh engine hands out ascending ids again, so the (time,
  // id) FIFO tie-break replays identically.
  std::vector<std::pair<double, Simulator::EventId>> live;
  sim_.CollectPending(live);
  std::unordered_map<Simulator::EventId, FaultInjector::PendingFault> injected;
  if (injector_ != nullptr) {
    std::vector<FaultInjector::PendingFault> pf;
    injector_->CollectPending(pf);
    for (const auto& f : pf) {
      injected[f.id] = f;
    }
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  engine.events.reserve(live.size());
  for (const auto& [at, id] : live) {
    SavedEvent& s = engine.events.emplace_back();
    s.at = at;
    if (const auto it = tracked_.find(id); it != tracked_.end()) {
      if (it->second.span != Tracer::kInvalidSpan) {
        throw std::logic_error(
            "Sim checkpoint: live span handle in the event queue (capture "
            "requires tracing disabled)");
      }
      s.source = 0;
      s.e = it->second;
    } else if (const auto jt = injected.find(id); jt != injected.end()) {
      s.source = 1;
      s.component = jt->second.component;
      s.is_repair = jt->second.is_repair;
    } else {
      throw std::logic_error(
          "Sim checkpoint: pending event without a descriptor");
    }
  }
  return engine;
}

// Fire indexes shuttles_, drives_, platters_ and the trace with a descriptor's
// payload, and the injector re-arms by component index; a snapshot naming any
// of them out of range, or an event kind no checkpoint can hold, is rejected
// here, before anything is re-armed.
void Sim::ValidateRestoredEvent(const SavedEvent& s) const {
  const auto reject = [](const std::string& what) {
    throw std::runtime_error("Sim checkpoint: " + what);
  };
  const auto in_range = [](int64_t index, size_t size) {
    return index >= 0 && static_cast<uint64_t>(index) < size;
  };
  if (s.source == 1) {
    if (injector_ == nullptr ||
        !in_range(s.component,
                  static_cast<size_t>(injector_->num_components()))) {
      reject("pending fault component " + std::to_string(s.component) +
             " out of range");
    }
    return;
  }
  const PendingEvent& e = s.e;
  bool a_shuttle = false;
  bool a_drive = false;
  bool b_platter = false;
  switch (e.kind) {
    case kEvFetchPick:
    case kEvFetchPlace:
    case kEvReturnPick:
    case kEvReturnStore:
    case kEvVerifyDeliveryPick:
    case kEvVerifyDeliveryPlace:
    case kEvScrubPick:
    case kEvScrubPlace:
      a_shuttle = b_platter = true;
      break;
    case kEvRecharge:
    case kEvScriptedShuttleFail:
      a_shuttle = true;
      break;
    case kEvMountDone:
    case kEvReadDone:
    case kEvUnmountDone:
      a_drive = b_platter = true;
      break;
    case kEvSwitchBack:
    case kEvVerifyDone:
      a_drive = true;
      break;
    case kEvRebuildRetry:
    case kEvRebuildWrite:
    case kEvStrandRecovery:
    case kEvRetryProbe:
      b_platter = true;
      break;
    case kEvArrival:
      if (e.b >= trace_.size()) {
        reject("pending arrival outside the trace");
      }
      break;
    case kEvProduceWrite:
    case kEvRepartitionTick:
    case kEvBlackoutStart:
    case kEvBlackoutEnd:
    case kEvLazyDrain:
      break;
    default:  // includes the federated kinds: injection cannot be captured
      reject("pending event kind " + std::to_string(e.kind) +
             " cannot appear in a checkpoint");
  }
  if (a_shuttle && !in_range(e.a, shuttles_.size())) {
    reject("pending event shuttle " + std::to_string(e.a) + " out of range");
  }
  if (a_drive && !in_range(e.a, drives_.size())) {
    reject("pending event drive " + std::to_string(e.a) + " out of range");
  }
  if (b_platter && e.b >= platters_.size()) {
    reject("pending event platter " + std::to_string(e.b) + " out of range");
  }
}

void Sim::RearmEngine(const EngineState& engine) {
  for (const SavedEvent& s : engine.events) {
    ValidateRestoredEvent(s);
  }
  // Clock first, then re-arm in original-id order: the fresh engine hands out
  // ascending ids, so the (time, id) FIFO tie-break replays identically.
  sim_.Restore(engine.now, engine.executed, engine.cancelled,
               engine.scheduled - engine.events.size());
  for (const SavedEvent& s : engine.events) {
    if (s.source == 1) {
      if (s.is_repair) {
        injector_->RearmRepairAt(s.component, s.at);
      } else {
        injector_->RearmFailureAt(s.component, s.at);
      }
      continue;
    }
    const Simulator::EventId id = ArmAt(s.at, s.e);
    // Rebind owner handles so aborts/preemptions can still cancel the event.
    switch (static_cast<EventKind>(s.e.kind)) {
      case kEvFetchPick:
      case kEvFetchPlace:
      case kEvReturnPick:
      case kEvReturnStore:
      case kEvRecharge:
      case kEvVerifyDeliveryPick:
      case kEvVerifyDeliveryPlace:
      case kEvScrubPick:
      case kEvScrubPlace:
        shuttles_[static_cast<size_t>(s.e.a)].job_event = id;
        break;
      case kEvReadDone:
        drives_[static_cast<size_t>(s.e.a)].read_event = id;
        break;
      case kEvVerifyDone:
        drives_[static_cast<size_t>(s.e.a)].verify_event = id;
        break;
      default:
        break;
    }
  }
  restored_ = true;
}

}  // namespace

template <class Ar>
void LibrarySimResult::Visit(Ar& ar) {
  ar(completion_times, requests_total, requests_completed, recovery_reads,
     makespan, travels, travel_times, congestion_wait_total,
     expected_travel_total, congestion_stops, travel_energy_total,
     platter_operations, drive_read_seconds, drive_verify_seconds,
     drive_switch_seconds, drive_idle_seconds, work_steals, shuttle_recharges,
     events_executed, congestion_detours, repartitions, repartition_history);
  ar(faults.shuttle_failures, faults.shuttle_repairs, faults.drive_failures,
     faults.drive_repairs, faults.rack_failures, faults.rack_repairs,
     faults.aborted_shuttle_jobs, faults.stranded_recoveries,
     faults.dark_retries, faults.converted_requests);
  ar(amplified_requests, requests_failed, platters_written, platters_verified,
     verify_turnaround);
  ar(scrub.aging_events, scrub.latent_sectors, scrub.scrubs_completed,
     scrub.scrub_detections, scrub.read_detections, scrub.rebuilds_started,
     scrub.rebuilds_completed, scrub.rebuild_retries, scrub.rebuild_reads,
     scrub.scrub_read_seconds, scrub.repair_read_seconds, scrub.lazy_admitted,
     scrub.lazy_drained, scrub.lazy_settled, scrub.lazy_drained_bytes,
     scrub.lazy_peak_queue, scrub.ledger.detected, scrub.ledger.repaired,
     scrub.ledger.unrecoverable, scrub.ledger.bytes_lost);
  ar(federation.injected_arrivals, federation.injected_resolved,
     federation.injected_failed, federation.injected_writes,
     federation.data_loss_escalations);
}

template void LibrarySimResult::Visit(StateWriter&);
template void LibrarySimResult::Visit(StateReader&);

void SaveLibrarySimResult(StateWriter& w, const LibrarySimResult& result) {
  w(result);
}

LibrarySimResult SimulateLibrary(const LibrarySimConfig& config,
                                 const ReadTrace& trace) {
  ValidateLibrarySimConfig(config);
  Sim sim(config, trace);
  return sim.Run();
}

namespace {
void RejectTracedCheckpoint(const LibrarySimConfig& config, const char* who) {
  if (config.telemetry != nullptr &&
      config.telemetry->tracer.enabled(kTraceAll)) {
    throw std::invalid_argument(
        std::string(who) +
        ": tracing must be disabled (span handles are runtime-only and cannot "
        "cross a checkpoint)");
  }
}
}  // namespace

LibrarySimResult SimulateLibraryWithCheckpoint(const LibrarySimConfig& config,
                                               const ReadTrace& trace,
                                               double checkpoint_at_s,
                                               LibraryCheckpoint* checkpoint) {
  ValidateLibrarySimConfig(config);
  if (checkpoint == nullptr) {
    throw std::invalid_argument(
        "SimulateLibraryWithCheckpoint: checkpoint must not be null");
  }
  if (!(checkpoint_at_s >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument(
        "SimulateLibraryWithCheckpoint: checkpoint_at_s must be >= 0");
  }
  RejectTracedCheckpoint(config, "SimulateLibraryWithCheckpoint");
  Sim sim(config, trace);
  sim.EnableCapture();
  return sim.Run(checkpoint_at_s, &checkpoint->bytes);
}

LibrarySimResult ResumeLibrary(const LibrarySimConfig& config,
                               const ReadTrace& trace,
                               const LibraryCheckpoint& checkpoint) {
  ValidateLibrarySimConfig(config);
  RejectTracedCheckpoint(config, "ResumeLibrary");
  Sim sim(config, trace);
  StateReader r(checkpoint.bytes);
  r(sim);
  return sim.Run();
}

// ---- LibraryTwin (stepped interface over the anonymous-namespace Sim) ----

struct LibraryTwin::Impl {
  // Order matters: the Sim keeps a reference to the trace.
  ReadTrace trace;
  Sim sim;
  Impl(const LibrarySimConfig& config, ReadTrace t)
      : trace(std::move(t)), sim(config, trace) {}
};

LibraryTwin::LibraryTwin(const LibrarySimConfig& config, ReadTrace trace) {
  ValidateLibrarySimConfig(config);
  impl_ = std::make_unique<Impl>(config, std::move(trace));
}

LibraryTwin::~LibraryTwin() = default;

void LibraryTwin::Prologue() { impl_->sim.Prologue(); }
uint64_t LibraryTwin::RunUntil(double until) { return impl_->sim.RunUntil(until); }
double LibraryTwin::Now() const { return impl_->sim.NowTime(); }
double LibraryTwin::NextEventTime() { return impl_->sim.NextEventTime(); }
bool LibraryTwin::Idle() const { return impl_->sim.EngineIdle(); }
bool LibraryTwin::WorkloadUnresolved() const { return impl_->sim.WorkloadLive(); }
bool LibraryTwin::explicit_writes() const { return impl_->sim.ExplicitWrites(); }
void LibraryTwin::InjectArrival(const ReadRequest& request, double when) {
  impl_->sim.InjectArrival(request, when);
}
void LibraryTwin::InjectReplicatedPlatter(double when) {
  impl_->sim.InjectReplicatedPlatter(when);
}
LibrarySimResult LibraryTwin::Finish() { return impl_->sim.Finish(); }

}  // namespace silica
