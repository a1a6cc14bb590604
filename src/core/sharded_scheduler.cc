#include "core/sharded_scheduler.h"

#include <stdexcept>

#include "common/state_io.h"
#include "telemetry/telemetry.h"

namespace silica {

void ShardedScheduler::Init(int num_shards, uint64_t num_platters) {
  shards_.clear();
  shards_.resize(static_cast<size_t>(num_shards));
  for (auto& shard : shards_) {
    shard.ReservePlatters(num_platters);
  }
  heap_.clear();
  scratch_.clear();
  seen_epoch_.assign(static_cast<size_t>(num_shards), 0);
  scan_failed_.assign(static_cast<size_t>(num_shards), 0);
  epoch_ = 0;
  nonzero_shards_ = 0;
  live_nonzero_ = 0;
  mutation_epoch_ = 0;
}

void ShardedScheduler::Submit(int shard, const ReadRequest& request) {
  auto& s = shards_[static_cast<size_t>(shard)];
  const uint64_t before = s.total_queued_bytes();
  s.Submit(request);
  NoteBytesChanged(shard, before);
}

void ShardedScheduler::Requeue(int shard, const ReadRequest& request) {
  auto& s = shards_[static_cast<size_t>(shard)];
  const uint64_t before = s.total_queued_bytes();
  s.Requeue(request);
  NoteBytesChanged(shard, before);
}

std::vector<ReadRequest> ShardedScheduler::TakeRequests(int shard,
                                                        uint64_t platter,
                                                        bool all) {
  auto& s = shards_[static_cast<size_t>(shard)];
  const uint64_t before = s.total_queued_bytes();
  auto taken = s.TakeRequests(platter, all);
  NoteBytesChanged(shard, before);
  return taken;
}

uint64_t ShardedScheduler::total_queued_bytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.total_queued_bytes();
  }
  return total;
}

size_t ShardedScheduler::pending_requests() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.pending_requests();
  }
  return total;
}

size_t ShardedScheduler::MigrateQueue(uint64_t platter, int from, int to) {
  if (from == to) {
    return 0;
  }
  auto taken = TakeRequests(from, platter, /*all=*/true);
  // Requeue restores at the *front* of the destination group, so walking the
  // batch newest-first rebuilds the original arrival order (and sidesteps
  // Submit's nondecreasing-arrival contract, which past arrivals would break).
  for (auto it = taken.rbegin(); it != taken.rend(); ++it) {
    Requeue(to, *it);
  }
  return taken.size();
}

void ShardedScheduler::SetTelemetry(Telemetry* telemetry) {
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].SetTelemetry(telemetry, static_cast<int>(s));
  }
}

void ShardedScheduler::NoteBytesChanged(int shard, uint64_t before) {
  // Any routed mutation may have changed queue content (even when the byte
  // total happens to match): a previously fruitless SelectPlatter may now find
  // work, so this shard's scan memo no longer holds. The live-shard count
  // swaps this shard's old contribution (nonzero with a clear memo) for its
  // new one (nonzero, memo just cleared).
  const size_t s = static_cast<size_t>(shard);
  const uint64_t now = shards_[s].total_queued_bytes();
  live_nonzero_ += (now > 0 ? 1 : 0) -
                   ((before > 0 && scan_failed_[s] == 0) ? 1 : 0);
  scan_failed_[s] = 0;
  ++mutation_epoch_;
  if (now == before) {
    return;
  }
  nonzero_shards_ += (now > 0 ? 1 : 0) - (before > 0 ? 1 : 0);
  if (now > 0) {
    heap_.emplace_back(now, shard);
    std::push_heap(heap_.begin(), heap_.end());
    CompactHeapIfNeeded();
  }
}

void ShardedScheduler::CompactHeapIfNeeded() {
  // Stale entries accumulate one per mutation; rebuild from live shard state
  // once they dominate. Purely count-driven, so compaction timing is a
  // deterministic function of the operation sequence — and enumeration output
  // is unchanged either way (stale entries are skipped when they surface).
  if (heap_.size() < 64 ||
      heap_.size() <= 4 * static_cast<size_t>(nonzero_shards_)) {
    return;
  }
  heap_.clear();
  for (size_t s = 0; s < shards_.size(); ++s) {
    const uint64_t bytes = shards_[s].total_queued_bytes();
    if (bytes > 0) {
      heap_.emplace_back(bytes, static_cast<int>(s));
    }
  }
  std::make_heap(heap_.begin(), heap_.end());
}

template <class Ar>
void ShardedScheduler::Visit(Ar& ar) {
  ar.Fixed(shards_, "ShardedScheduler checkpoint: shard count mismatch");
  ar(heap_);
  ar.Fixed(seen_epoch_, "ShardedScheduler checkpoint: shard count mismatch");
  ar.Fixed(scan_failed_, "ShardedScheduler checkpoint: shard count mismatch");
  ar(epoch_, nonzero_shards_, live_nonzero_, mutation_epoch_);
  if constexpr (Ar::kLoading) {
    scratch_.clear();
  }
}

template void ShardedScheduler::Visit(StateWriter&);
template void ShardedScheduler::Visit(StateReader&);

}  // namespace silica
