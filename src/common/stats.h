// Streaming statistics, percentile tracking, histograms, and time-weighted utilization
// accounting for Silica experiments.
#ifndef SILICA_COMMON_STATS_H_
#define SILICA_COMMON_STATS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace silica {

// Welford-style streaming mean/variance with min/max.
class StreamingStats {
 public:
  void Add(double x);
  void Merge(const StreamingStats& other);

  // Checkpoint field list (common/state_io.h); bit patterns preserved.
  template <class Ar>
  void Visit(Ar& ar) {
    ar(count_, mean_, m2_, min_, max_);
  }

  uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const { return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0; }
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Exact percentile tracking by retaining all samples. The Silica experiments track the
// 99.9th percentile of at most a few million completion times, so exact retention is
// both affordable and simplest to reason about.
class PercentileTracker {
 public:
  void Add(double x) { samples_.push_back(x); }
  void Reserve(size_t n) { samples_.reserve(n); }

  uint64_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double sum() const;
  double mean() const;
  double max() const;
  double min() const;

  // q in [0, 1]; e.g. Percentile(0.999) is the tail completion time.
  // Uses nearest-rank on the sorted samples. Returns 0 when empty.
  double Percentile(double q) const;

  // Absorbs another tracker's samples (e.g. merging per-library results).
  void Merge(const PercentileTracker& other);

  // Checkpoint field list (common/state_io.h). Sample *order* is preserved
  // (not just the multiset): sum() accumulates in storage order, so byte-equal
  // restored results require byte-equal storage.
  template <class Ar>
  void Visit(Ar& ar) {
    ar(samples_, sorted_);
  }

 private:
  // Sorted lazily; mutable so accessors stay const.
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void EnsureSorted() const;
};

// Fixed-boundary histogram (e.g. the file-size buckets of Figure 1(b)).
class BucketHistogram {
 public:
  // `bounds` are the inclusive upper edges of each bucket; a final overflow bucket
  // catches everything above the last bound.
  explicit BucketHistogram(std::vector<double> bounds);

  void Add(double x, double weight = 1.0);

  size_t num_buckets() const { return counts_.size(); }
  double count(size_t bucket) const { return counts_[bucket]; }
  double total() const { return total_; }
  // Fraction of total weight in the bucket; 0 if nothing recorded.
  double Fraction(size_t bucket) const;
  double upper_bound(size_t bucket) const;

 private:
  std::vector<double> bounds_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

// Accumulates how long a component spends in each named state; used for the
// read-drive utilization breakdown of Figure 6.
class UtilizationLedger {
 public:
  explicit UtilizationLedger(std::vector<std::string> states);

  // Records that the component was in `state` (by index) for `duration` seconds.
  void Accrue(size_t state, double duration);

  double total() const { return total_; }
  double seconds(size_t state) const { return seconds_[state]; }
  // Fraction of total accounted time spent in the state.
  double Fraction(size_t state) const;
  const std::string& name(size_t state) const { return names_[state]; }
  size_t num_states() const { return names_.size(); }
  void Merge(const UtilizationLedger& other);

 private:
  std::vector<std::string> names_;
  std::vector<double> seconds_;
  double total_ = 0.0;
};

}  // namespace silica

#endif  // SILICA_COMMON_STATS_H_
