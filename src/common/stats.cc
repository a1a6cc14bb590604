#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>


namespace silica {

void StreamingStats::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void StreamingStats::Merge(const StreamingStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const double n = static_cast<double>(count_);
  const double m = static_cast<double>(other.count_);
  mean_ += delta * m / (n + m);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

void PercentileTracker::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double PercentileTracker::sum() const {
  double s = 0.0;
  for (double x : samples_) {
    s += x;
  }
  return s;
}

double PercentileTracker::mean() const {
  return samples_.empty() ? 0.0 : sum() / static_cast<double>(samples_.size());
}

double PercentileTracker::max() const {
  EnsureSorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double PercentileTracker::min() const {
  EnsureSorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

void PercentileTracker::Merge(const PercentileTracker& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = false;
}

double PercentileTracker::Percentile(double q) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  q = std::clamp(q, 0.0, 1.0);
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(samples_.size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  return samples_[std::min(index, samples_.size() - 1)];
}

BucketHistogram::BucketHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0.0) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("BucketHistogram bounds must be sorted");
  }
}

void BucketHistogram::Add(double x, double weight) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  counts_[static_cast<size_t>(it - bounds_.begin())] += weight;
  total_ += weight;
}

double BucketHistogram::Fraction(size_t bucket) const {
  return total_ > 0.0 ? counts_[bucket] / total_ : 0.0;
}

double BucketHistogram::upper_bound(size_t bucket) const {
  return bucket < bounds_.size() ? bounds_[bucket]
                                 : std::numeric_limits<double>::infinity();
}

UtilizationLedger::UtilizationLedger(std::vector<std::string> states)
    : names_(std::move(states)), seconds_(names_.size(), 0.0) {}

void UtilizationLedger::Accrue(size_t state, double duration) {
  seconds_.at(state) += duration;
  total_ += duration;
}

double UtilizationLedger::Fraction(size_t state) const {
  return total_ > 0.0 ? seconds_[state] / total_ : 0.0;
}

void UtilizationLedger::Merge(const UtilizationLedger& other) {
  if (other.names_.size() != names_.size()) {
    throw std::invalid_argument("UtilizationLedger::Merge: mismatched states");
  }
  for (size_t i = 0; i < seconds_.size(); ++i) {
    seconds_[i] += other.seconds_[i];
  }
  total_ += other.total_;
}

}  // namespace silica
