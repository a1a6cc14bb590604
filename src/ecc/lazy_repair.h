// Lazy, bandwidth-budgeted repair queue (DESIGN.md section 17).
//
// The PR-4 repair ladder is *eager*: damage surfaced by a scrub or customer
// read is repaired inline at the detecting drive, whatever it costs. Liquid
// Cloud Storage (PAPERS.md) makes the opposite trade: admit degraded items to
// a queue ordered by how little redundancy they have left, and drain the queue
// under a fixed repair-bandwidth budget. Durability then degrades smoothly as
// the budget shrinks — the durability-vs-repair-traffic frontier the MTTDL
// estimator sweeps.
//
// The queue is deterministic: entries are ordered by (remaining redundancy
// ascending, admission time, admission sequence), so two runs that admit the
// same entries drain them identically. Budget accounting is a token bucket
// accrued in simulation time; Drain() never exceeds the accrued byte budget,
// which is the invariant the fault-storm regression test pins
// (`drained_bytes <= bandwidth * elapsed`).
#ifndef SILICA_ECC_LAZY_REPAIR_H_
#define SILICA_ECC_LAZY_REPAIR_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "ecc/repair.h"

namespace silica {

struct LazyRepairConfig {
  bool enabled = false;
  // Byte budget per second of read-repair traffic across the whole library.
  double bandwidth_bytes_per_s = 64.0 * 1024.0 * 1024.0;
  // How often the drain pump wakes up to spend accrued budget.
  double drain_interval_s = 60.0;
};

struct LazyRepairEntry {
  uint64_t platter = 0;
  int remaining_redundancy = 0;  // failures the owning set can still absorb
  RepairTier tier = RepairTier::kLdpcRetry;
  uint64_t sectors = 0;  // damaged sectors this entry repairs
  uint64_t bytes = 0;    // read-repair traffic the repair must issue
  int drive = -1;        // drive that detected the damage (billing target)
  double admitted_at = 0.0;
  uint64_t seq = 0;  // admission order; final FIFO tie-break

  template <class Ar>
  void Visit(Ar& ar) {
    ar(platter, remaining_redundancy);
    ar.Enum(tier, RepairTier::kPlatterSet,
            "LazyRepairQueue checkpoint: repair tier out of range");
    ar(sectors, bytes, drive, admitted_at, seq);
  }
};

class LazyRepairQueue {
 public:
  void Configure(const LazyRepairConfig& config, double now) {
    config_ = config;
    last_accrual_ = now;
    tokens_ = 0.0;
  }
  const LazyRepairConfig& config() const { return config_; }

  // Admits a degraded item. Urgency is (remaining_redundancy asc, admitted_at,
  // seq): the closest-to-loss item always drains first.
  void Admit(LazyRepairEntry entry) {
    entry.seq = next_seq_++;
    admitted_bytes_ += entry.bytes;
    ++admitted_;
    queued_bytes_ += entry.bytes;
    entries_.insert(entry);
  }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  uint64_t queued_bytes() const { return queued_bytes_; }
  uint64_t admitted() const { return admitted_; }
  uint64_t drained() const { return drained_; }
  uint64_t drained_bytes() const { return drained_bytes_; }

  // Accrues budget to `now`, then pops every entry the accumulated tokens
  // cover (most urgent first), invoking `repair(entry)` for each. An entry is
  // only popped when the budget covers it *whole* — partial repairs would
  // leave the set in an unaccountable half-state. Returns entries drained.
  template <typename Fn>
  size_t Drain(double now, Fn&& repair) {
    Accrue(now);
    size_t popped = 0;
    while (!entries_.empty()) {
      const LazyRepairEntry& front = *entries_.begin();
      if (static_cast<double>(front.bytes) > tokens_) {
        break;
      }
      LazyRepairEntry entry = front;
      entries_.erase(entries_.begin());
      tokens_ -= static_cast<double>(entry.bytes);
      queued_bytes_ -= entry.bytes;
      drained_bytes_ += entry.bytes;
      ++drained_;
      ++popped;
      repair(entry);
    }
    return popped;
  }

  // Removes and returns every queued entry for `platter` (it was lost, or a
  // tier-3 rebuild replaced it wholesale). The caller owns the ledger
  // consequences — nothing here is counted repaired or unrecoverable.
  std::vector<LazyRepairEntry> Evict(uint64_t platter) {
    std::vector<LazyRepairEntry> evicted;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->platter == platter) {
        queued_bytes_ -= it->bytes;
        evicted.push_back(*it);
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    return evicted;
  }

  // Drains everything regardless of budget (end-of-run settlement: the run is
  // over, the backlog must reach the ledger exactly once).
  template <typename Fn>
  size_t DrainAll(double now, Fn&& repair) {
    Accrue(now);
    size_t popped = 0;
    while (!entries_.empty()) {
      LazyRepairEntry entry = *entries_.begin();
      entries_.erase(entries_.begin());
      queued_bytes_ -= entry.bytes;
      drained_bytes_ += entry.bytes;
      ++drained_;
      ++popped;
      repair(entry);
    }
    return popped;
  }

  // Checkpoint field list (common/state_io.h). The config is not serialized;
  // the caller re-applies it with Configure before loading.
  template <class Ar>
  void Visit(Ar& ar) {
    ar(entries_, tokens_, last_accrual_, next_seq_, queued_bytes_, admitted_,
       drained_, admitted_bytes_, drained_bytes_);
  }

 private:
  struct UrgencyOrder {
    bool operator()(const LazyRepairEntry& a, const LazyRepairEntry& b) const {
      if (a.remaining_redundancy != b.remaining_redundancy) {
        return a.remaining_redundancy < b.remaining_redundancy;
      }
      if (a.admitted_at != b.admitted_at) {
        return a.admitted_at < b.admitted_at;
      }
      return a.seq < b.seq;
    }
  };

  void Accrue(double now) {
    if (now > last_accrual_) {
      tokens_ += (now - last_accrual_) * config_.bandwidth_bytes_per_s;
      last_accrual_ = now;
    }
  }

  LazyRepairConfig config_;
  std::set<LazyRepairEntry, UrgencyOrder> entries_;
  double tokens_ = 0.0;
  double last_accrual_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t queued_bytes_ = 0;
  uint64_t admitted_ = 0;
  uint64_t drained_ = 0;
  uint64_t admitted_bytes_ = 0;
  uint64_t drained_bytes_ = 0;
};

}  // namespace silica

#endif  // SILICA_ECC_LAZY_REPAIR_H_
