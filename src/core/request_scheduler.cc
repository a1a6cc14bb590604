#include "core/request_scheduler.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "common/state_io.h"
#include "telemetry/telemetry.h"

namespace silica {

void RequestScheduler::SetTelemetry(Telemetry* telemetry, int scheduler_id) {
  if (telemetry == nullptr) {
    submitted_counter_ = nullptr;
    pending_gauge_ = nullptr;
    bytes_gauge_ = nullptr;
    return;
  }
  const MetricLabels labels = {{"scheduler", std::to_string(scheduler_id)}};
  submitted_counter_ =
      &telemetry->metrics.GetCounter("scheduler_requests_submitted_total", labels);
  pending_gauge_ =
      &telemetry->metrics.GetGauge("scheduler_pending_requests", labels);
  bytes_gauge_ = &telemetry->metrics.GetGauge("scheduler_queued_bytes", labels);
}

void RequestScheduler::ReservePlatters(uint64_t num_platters) {
  if (num_platters > slots_.size()) {
    slots_.resize(num_platters, kNoSlot);
  }
}

void RequestScheduler::PublishDepth() {
  if (pending_gauge_ != nullptr) {
    pending_gauge_->Set(static_cast<double>(pending_requests_));
    bytes_gauge_->Set(static_cast<double>(total_bytes_));
  }
}

RequestScheduler::PlatterQueue& RequestScheduler::GetOrCreate(uint64_t platter,
                                                              bool* created) {
  if (platter >= slots_.size()) {
    slots_.resize(platter + 1, kNoSlot);
  }
  int32_t slot = slots_[platter];
  if (slot != kNoSlot) {
    *created = false;
    return pool_[static_cast<size_t>(slot)];
  }
  *created = true;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<int32_t>(pool_.size());
    pool_.emplace_back();
  }
  slots_[platter] = slot;
  PlatterQueue& queue = pool_[static_cast<size_t>(slot)];
  queue.platter = platter;
  queue.bytes = 0;
  queue.in_use = true;
  ++active_groups_;
  return queue;
}

void RequestScheduler::ReleaseSlot(uint64_t platter, int32_t slot) {
  PlatterQueue& queue = pool_[static_cast<size_t>(slot)];
  queue.in_use = false;
  queue.bytes = 0;
  slots_[platter] = kNoSlot;
  free_.push_back(slot);
  --active_groups_;
}

bool RequestScheduler::Stale(const Entry& entry) const {
  const int32_t slot = SlotOf(entry.second);
  if (slot == kNoSlot) {
    return true;
  }
  const PlatterQueue& queue = pool_[static_cast<size_t>(slot)];
  return queue.requests.empty() || queue.requests.front().arrival != entry.first;
}

void RequestScheduler::PushEntry(double arrival, uint64_t platter) {
  heap_.emplace_back(arrival, platter);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
}

void RequestScheduler::CompactHeapIfNeeded() {
  if (heap_.size() <= 2 * active_groups_ + 64) {
    return;
  }
  heap_.clear();
  for (const PlatterQueue& queue : pool_) {
    if (queue.in_use && !queue.requests.empty()) {
      heap_.emplace_back(queue.requests.front().arrival, queue.platter);
    }
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
}

void RequestScheduler::Submit(const ReadRequest& request) {
  bool created = false;
  PlatterQueue& queue = GetOrCreate(request.platter, &created);
  if (!created && !queue.requests.empty() &&
      request.arrival < queue.requests.front().arrival) {
    throw std::invalid_argument("RequestScheduler: out-of-order submission");
  }
  queue.requests.push_back(request);
  queue.bytes += request.bytes;
  total_bytes_ += request.bytes;
  ++pending_requests_;
  if (created) {
    // Push after the queue mutation: a compaction rebuilds the heap from the
    // groups' front arrivals, so the new group must be non-empty by now.
    PushEntry(request.arrival, request.platter);
    CompactHeapIfNeeded();
  }
  if (submitted_counter_ != nullptr) {
    submitted_counter_->Increment();
    PublishDepth();
  }
}

std::optional<uint64_t> RequestScheduler::SelectPlatter(
    const std::function<bool(uint64_t)>& accessible) const {
  // Pop entries to visit them in exact (arrival, platter) order; stale ones are
  // dropped for good, duplicates (equal keys are only ever duplicates of one
  // group's front) are skipped, and the live entries are pushed back afterwards
  // so the heap still describes every group.
  scratch_.clear();
  std::optional<uint64_t> found;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
    const Entry entry = heap_.back();
    heap_.pop_back();
    if (Stale(entry)) {
      continue;
    }
    if (!scratch_.empty() && scratch_.back() == entry) {
      continue;
    }
    scratch_.push_back(entry);
    if (accessible(entry.second)) {
      found = entry.second;
      break;
    }
  }
  // scratch_ is sorted ascending, so each push sifts O(1) on average.
  for (const Entry& entry : scratch_) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
  }
  return found;
}

std::vector<ReadRequest> RequestScheduler::TakeRequests(uint64_t platter, bool all) {
  const int32_t slot = SlotOf(platter);
  if (slot == kNoSlot) {
    return {};
  }
  PlatterQueue& queue = pool_[static_cast<size_t>(slot)];
  const double front_arrival = queue.requests.front().arrival;

  std::vector<ReadRequest> taken;
  if (all) {
    taken.assign(queue.requests.begin(), queue.requests.end());
    queue.requests.clear();
    total_bytes_ -= queue.bytes;
    queue.bytes = 0;
  } else {
    taken.push_back(queue.requests.front());
    queue.requests.pop_front();
    queue.bytes -= taken.front().bytes;
    total_bytes_ -= taken.front().bytes;
  }
  pending_requests_ -= taken.size();

  if (queue.requests.empty()) {
    ReleaseSlot(platter, slot);  // the heap entry goes stale and gets dropped
  } else if (queue.requests.front().arrival != front_arrival) {
    // New front: the old entry is stale, publish the replacement. (Equal
    // arrivals keep the old entry valid — same key, nothing to do.)
    PushEntry(queue.requests.front().arrival, platter);
    CompactHeapIfNeeded();
  }
  PublishDepth();
  return taken;
}

void RequestScheduler::Requeue(const ReadRequest& request) {
  bool created = false;
  PlatterQueue& queue = GetOrCreate(request.platter, &created);
  if (!created && !queue.requests.empty() &&
      request.arrival > queue.requests.front().arrival) {
    throw std::invalid_argument("RequestScheduler: Requeue would reorder arrivals");
  }
  queue.requests.push_front(request);
  queue.bytes += request.bytes;
  total_bytes_ += request.bytes;
  ++pending_requests_;
  PushEntry(request.arrival, request.platter);
  CompactHeapIfNeeded();
  PublishDepth();
}

bool RequestScheduler::HasRequests(uint64_t platter) const {
  return SlotOf(platter) != kNoSlot;
}

uint64_t RequestScheduler::QueuedBytes(uint64_t platter) const {
  const int32_t slot = SlotOf(platter);
  return slot == kNoSlot ? 0 : pool_[static_cast<size_t>(slot)].bytes;
}

std::optional<double> RequestScheduler::EarliestArrival(uint64_t platter) const {
  const int32_t slot = SlotOf(platter);
  if (slot == kNoSlot || pool_[static_cast<size_t>(slot)].requests.empty()) {
    return std::nullopt;
  }
  return pool_[static_cast<size_t>(slot)].requests.front().arrival;
}

void RequestScheduler::ForEachQueuedPlatter(
    const std::function<void(uint64_t, uint64_t)>& fn) const {
  for (const PlatterQueue& queue : pool_) {
    if (queue.in_use && !queue.requests.empty()) {
      fn(queue.platter, queue.bytes);
    }
  }
}

template <class Ar>
void RequestScheduler::Visit(Ar& ar) {
  ar.Seq(slots_, slots_.size(), SIZE_MAX,
         "RequestScheduler checkpoint: slot table shorter than reserved");
  ar(pool_, free_, active_groups_, heap_, pending_requests_, total_bytes_);
  if constexpr (Ar::kLoading) {
    scratch_.clear();
    PublishDepth();
  }
}

template void RequestScheduler::Visit(StateWriter&);
template void RequestScheduler::Visit(StateReader&);

}  // namespace silica
