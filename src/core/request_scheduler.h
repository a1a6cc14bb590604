// The library controller's request scheduler (Section 4.1).
//
// The scheduler keeps a queue ordered on request arrival time plus a structure
// grouping all requests for the same platter. Platter fetch selection is
// work-conserving: the platter with the earliest queued read *among accessible
// platters* is selected, even if an older request exists for a platter that is
// currently inaccessible (being carried, mounted, or obscured). Once a platter is
// mounted, all queued requests for it are serviced, amortizing the fetch.
//
// Hot-path layout: platter groups live in a flat slot pool indexed by platter id
// (platter ids are dense layout indices), and earliest-first selection runs on a
// lazy-deletion min-heap of (arrival, platter) entries — Submit/TakeRequests/
// SelectPlatter never allocate tree or hash nodes. A heap entry is stale once its
// platter's group is gone or its front arrival moved (partial takes, requeues);
// stale entries are dropped when they surface at the heap top, and the heap is
// rebuilt from the live groups if stale entries ever dominate. Selection output
// is identical to the ordered-set implementation this replaces: entries are
// visited in exact (arrival, platter) order and duplicates are skipped.
#ifndef SILICA_CORE_REQUEST_SCHEDULER_H_
#define SILICA_CORE_REQUEST_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/request.h"

namespace silica {

class Counter;
class Gauge;
struct Telemetry;

class RequestScheduler {
 public:
  // Publishes queue-depth gauges and a submission counter, labeled with this
  // scheduler's partition id, into the registry; nullptr detaches.
  void SetTelemetry(Telemetry* telemetry, int scheduler_id);

  // Pre-sizes the platter index (platter ids are dense layout indices). Optional:
  // the index also grows on demand.
  void ReservePlatters(uint64_t num_platters);

  // Queues a request. Requests must be submitted in nondecreasing arrival order
  // (the event loop guarantees this).
  void Submit(const ReadRequest& request);

  // Selects the platter with the earliest queued request among those for which
  // `accessible` returns true. Returns nullopt when nothing is selectable.
  std::optional<uint64_t> SelectPlatter(
      const std::function<bool(uint64_t)>& accessible) const;

  // Removes and returns queued requests for `platter`. With `all` (the default
  // Silica behaviour) the whole group is drained; with all=false only the oldest
  // request is popped (the no-grouping ablation).
  std::vector<ReadRequest> TakeRequests(uint64_t platter, bool all = true);

  // Puts a previously taken request back at the *front* of its platter group,
  // restoring arrival order. Used by degraded mode when a read drive dies with a
  // request in flight: the popped request must re-enter the queue ahead of its
  // younger siblings, which Submit's nondecreasing-arrival contract forbids.
  void Requeue(const ReadRequest& request);

  bool HasRequests(uint64_t platter) const;
  size_t pending_requests() const { return pending_requests_; }
  size_t pending_platters() const { return active_groups_; }
  uint64_t total_queued_bytes() const { return total_bytes_; }

  // Total queued bytes for a platter (0 when none), and the arrival time of its
  // oldest queued request.
  uint64_t QueuedBytes(uint64_t platter) const;
  std::optional<double> EarliestArrival(uint64_t platter) const;

  // Iterates all platters with queued work (for load accounting / work stealing).
  void ForEachQueuedPlatter(
      const std::function<void(uint64_t platter, uint64_t bytes)>& fn) const;

  // Checkpoint/restore: serializes the *physical* layout (slot table, pool,
  // free list, lazy-deletion heap), not just the logical queue contents, so a
  // restored scheduler reproduces the original's future slot assignments and
  // heap-compaction timing exactly — the blunt way to guarantee byte-identical
  // replay. Telemetry handles are untouched. The slot table holds at least
  // the platters reserved before the load.
  template <class Ar>
  void Visit(Ar& ar);

 private:
  struct PlatterQueue {
    std::deque<ReadRequest> requests;
    uint64_t bytes = 0;
    uint64_t platter = 0;
    bool in_use = false;

    template <class Ar>
    void Visit(Ar& ar) {
      ar(requests, bytes, platter, in_use);
    }
  };
  // (oldest arrival, platter): min-heap entries for earliest-first selection.
  using Entry = std::pair<double, uint64_t>;

  static constexpr int32_t kNoSlot = -1;

  // Slot of the platter's group, or kNoSlot.
  int32_t SlotOf(uint64_t platter) const {
    return platter < slots_.size() ? slots_[platter] : kNoSlot;
  }
  PlatterQueue& GetOrCreate(uint64_t platter, bool* created);
  void ReleaseSlot(uint64_t platter, int32_t slot);
  void PushEntry(double arrival, uint64_t platter);
  // True when the entry no longer describes its platter's front-of-queue state.
  bool Stale(const Entry& entry) const;
  // Rebuilds the heap from live groups once stale entries dominate, so lazy
  // deletion stays O(live) in memory.
  void CompactHeapIfNeeded();
  void PublishDepth();

  Counter* submitted_counter_ = nullptr;
  Gauge* pending_gauge_ = nullptr;
  Gauge* bytes_gauge_ = nullptr;

  std::vector<int32_t> slots_;      // platter id -> pool slot
  std::vector<PlatterQueue> pool_;  // slot storage, recycled via free_
  std::vector<int32_t> free_;
  size_t active_groups_ = 0;

  // Lazy-deletion min-heap (std::greater on (arrival, platter)). Mutable with
  // scratch_: SelectPlatter pops entries to visit them in sorted order and
  // pushes the live ones back — logically const, physically a reshuffle.
  mutable std::vector<Entry> heap_;
  mutable std::vector<Entry> scratch_;

  size_t pending_requests_ = 0;
  uint64_t total_bytes_ = 0;
};

}  // namespace silica

#endif  // SILICA_CORE_REQUEST_SCHEDULER_H_
