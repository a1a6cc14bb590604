#include "sim/simulator.h"

#include <stdexcept>
#include <utility>

#include "telemetry/telemetry.h"

namespace silica {

Simulator::EventId Simulator::Schedule(SimTime delay, InlineEvent fn) {
  if (delay < 0.0) {
    throw std::invalid_argument("Simulator::Schedule: negative delay");
  }
  return ScheduleAt(now_ + delay, std::move(fn));
}

Simulator::EventId Simulator::ScheduleAt(SimTime when, InlineEvent fn) {
  if (when < now_) {
    throw std::invalid_argument("Simulator::ScheduleAt: time in the past");
  }
  const EventId id = next_id_++;
  queue_.Push(when, id, std::move(fn));
  return id;
}

void Simulator::Cancel(EventId id) {
  if (id == kInvalidEvent || id >= next_id_) {
    return;
  }
  if (!cancelled_.insert(id).second) {
    return;  // double cancel
  }
  ++events_cancelled_;
  // A cancel of an id that already fired leaves a stale entry (we cannot tell
  // without a per-event side structure, which slows the hot pop path; the cold
  // paths re-verify instead). Purge once stale entries provably dominate, so the
  // set stays bounded by ~2x the genuinely queued tombstones.
  if (cancelled_.size() > 2 * queue_.size() + 64) {
    PurgeStaleTombstones();
  }
}

void Simulator::PurgeStaleTombstones() {
  std::unordered_set<EventId> queued;
  queued.reserve(cancelled_.size());
  queue_.ForEach([this, &queued](const SimEvent& event) {
    if (cancelled_.count(event.id) != 0) {
      queued.insert(event.id);
    }
  });
  events_cancelled_ -= cancelled_.size() - queued.size();
  cancelled_ = std::move(queued);
}

bool Simulator::Idle() const {
  // Counts tombstones against the actual queue contents rather than trusting
  // cancelled_.size(): the set may hold stale entries for events that fired
  // before being cancelled. Each queued tombstone has its own entry in the
  // set, so a queue longer than the set must hold a live event; only the rest
  // pays the O(queue) sweep.
  if (queue_.empty()) {
    return true;
  }
  if (cancelled_.size() < queue_.size()) {
    return false;
  }
  size_t tombstones = 0;
  queue_.ForEach([this, &tombstones](const SimEvent& event) {
    tombstones += cancelled_.count(event.id);
  });
  return queue_.size() == tombstones;
}

void Simulator::SetTelemetry(Telemetry* telemetry) {
  if (telemetry == nullptr) {
    scheduled_counter_ = executed_counter_ = cancelled_counter_ = nullptr;
    return;
  }
  scheduled_counter_ = &telemetry->metrics.GetCounter("sim_events_scheduled_total");
  executed_counter_ = &telemetry->metrics.GetCounter("sim_events_executed_total");
  cancelled_counter_ = &telemetry->metrics.GetCounter("sim_events_cancelled_total");
}

void Simulator::CollectPending(
    std::vector<std::pair<SimTime, EventId>>& out) const {
  queue_.ForEach([this, &out](const SimEvent& event) {
    if (cancelled_.count(event.id) == 0) {
      out.emplace_back(event.time, event.id);
    }
  });
}

void Simulator::Restore(SimTime now, uint64_t events_executed,
                        uint64_t events_cancelled, uint64_t scheduled_base) {
  if (!queue_.empty() || next_id_ != 1) {
    throw std::logic_error("Simulator::Restore: engine already used");
  }
  now_ = now;
  events_executed_ = events_executed;
  events_cancelled_ = events_cancelled;
  scheduled_base_ = scheduled_base;
}

void Simulator::FlushCounters() {
  if (scheduled_counter_ == nullptr) {
    return;
  }
  // Settle events_cancelled_ first: cancels of already-fired events must not be
  // reported as cancellations.
  PurgeStaleTombstones();
  const uint64_t scheduled = next_id_ - 1 + scheduled_base_;
  scheduled_counter_->Increment(static_cast<double>(scheduled - flushed_scheduled_));
  flushed_scheduled_ = scheduled;
  executed_counter_->Increment(
      static_cast<double>(events_executed_ - flushed_executed_));
  flushed_executed_ = events_executed_;
  cancelled_counter_->Increment(
      static_cast<double>(events_cancelled_ - flushed_cancelled_));
  flushed_cancelled_ = events_cancelled_;
}

uint64_t Simulator::Run(SimTime until) {
  uint64_t executed = 0;
  while (!queue_.empty()) {
    if (queue_.Top().time > until) {
      break;
    }
    SimEvent event = queue_.PopTop();
    if (!cancelled_.empty()) {
      const auto it = cancelled_.find(event.id);
      if (it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
    }
    now_ = event.time;
    event.fn();
    ++executed;
    ++events_executed_;
  }
  // A bounded run advances the clock to `until` only when it was genuinely
  // interrupted (a live event remains past the bound). When the workload
  // drained first, the clock stays at the last event — so a checkpoint
  // requested past the end of the run captures the natural final state instead
  // of an artificially late one. The loop stopped on the top event, so Top()
  // is cached and a live top answers in O(1); only a tombstone on top needs
  // Idle()'s exact check. Tombstones stay queued: PeekNextTime() reports them.
  if (now_ < until && until != kForever && !queue_.empty() &&
      (cancelled_.count(queue_.Top().id) == 0 || !Idle())) {
    now_ = until;
  }
  return executed;
}

}  // namespace silica
