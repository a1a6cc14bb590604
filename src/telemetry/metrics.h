// Metrics registry: named, label-tagged counters, gauges, and histograms that any
// component of the digital twin can publish into, snapshotable to Prometheus-style
// text and JSON.
//
// Design goals, in order:
//   1. Handles are stable: `GetCounter(...)` returns a reference that stays valid
//      for the registry's lifetime, so hot paths resolve a metric once at setup and
//      then pay a single add per event.
//   2. Deterministic export: metrics serialize in (name, labels) order so snapshots
//      diff cleanly across runs and golden files are stable. Storage is an
//      unordered_map (hot-path lookups dominate); exporters sort a view of the
//      entries, so the exposition text is identical to the old ordered-map one.
//   3. Merge semantics for sharded runs: counters add, gauges take the other side's
//      latest value, histograms absorb the other side's samples.
//
// Histograms reuse the existing StreamingStats (mean/min/max) and PercentileTracker
// (exact quantiles) rather than inventing a third accumulator.
#ifndef SILICA_TELEMETRY_METRICS_H_
#define SILICA_TELEMETRY_METRICS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace silica {

// Label set attached to a metric instance, e.g. {{"drive", "3"}, {"policy", "silica"}}.
// Kept sorted by key so equal label sets always serialize identically.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void Increment(double delta = 1.0) { value_ += delta; }
  double value() const { return value_; }

 private:
  friend class MetricsRegistry;  // Visit restores the exact bit pattern
  double value_ = 0.0;
};

class Gauge {
 public:
  void Set(double value) { value_ = value; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  friend class MetricsRegistry;  // Visit restores the exact bit pattern
  double value_ = 0.0;
};

class Histogram {
 public:
  void Observe(double x) {
    stats_.Add(x);
    percentiles_.Add(x);
  }
  void Merge(const Histogram& other) {
    stats_.Merge(other.stats_);
    percentiles_.Merge(other.percentiles_);
  }

  uint64_t count() const { return stats_.count(); }
  double sum() const { return stats_.sum(); }
  double mean() const { return stats_.mean(); }
  double min() const { return stats_.min(); }
  double max() const { return stats_.max(); }
  double Percentile(double q) const { return percentiles_.Percentile(q); }

  // Checkpoint field list (common/state_io.h).
  template <class Ar>
  void Visit(Ar& ar) {
    ar(stats_, percentiles_);
  }

 private:
  StreamingStats stats_;
  PercentileTracker percentiles_;
};

class MetricsRegistry {
 public:
  // Finds or creates the metric; the returned reference stays valid for the
  // registry's lifetime. Requesting an existing name with a different metric kind
  // throws (a name identifies exactly one kind).
  Counter& GetCounter(const std::string& name, MetricLabels labels = {});
  Gauge& GetGauge(const std::string& name, MetricLabels labels = {});
  Histogram& GetHistogram(const std::string& name, MetricLabels labels = {});

  // Point lookups for tests / report plumbing. Zero (or empty histogram) when the
  // metric does not exist.
  double CounterValue(const std::string& name, const MetricLabels& labels = {}) const;
  double GaugeValue(const std::string& name, const MetricLabels& labels = {}) const;
  const Histogram* FindHistogram(const std::string& name,
                                 const MetricLabels& labels = {}) const;

  // Absorbs `other`: counters add, gauges take other's value, histograms merge.
  void Merge(const MetricsRegistry& other);

  // Checkpoint field list (common/state_io.h). Entries go out in the
  // deterministic (name, labels) export order; a load *overwrites* matching
  // metrics (creating missing ones) so a restored run's registry ends
  // byte-identical to an uninterrupted one. Handles returned by Get* before
  // a load stay valid — entries are updated in place, never recreated.
  template <class Ar>
  void Visit(Ar& ar);

  size_t size() const { return metrics_.size(); }

  // Prometheus text exposition (histograms render as summaries with quantiles).
  std::string ToPrometheusText() const;
  // One JSON object: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string ToJson() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  // Key = name + '\0'-separated serialized labels: sorts by name then labels.
  using Key = std::pair<std::string, std::string>;
  struct KeyHash {
    size_t operator()(const Key& key) const {
      const size_t h1 = std::hash<std::string>{}(key.first);
      const size_t h2 = std::hash<std::string>{}(key.second);
      return h1 ^ (h2 + 0x9e3779b97f4a7c15ull + (h1 << 6) + (h1 >> 2));
    }
  };
  static std::string EncodeLabels(const MetricLabels& labels);
  Entry& FindOrCreate(const std::string& name, MetricLabels labels, Kind kind);
  const Entry* Find(const std::string& name, const MetricLabels& labels,
                    Kind kind) const;
  // Entries sorted by (name, labels) — the exporters' deterministic view.
  std::vector<const std::pair<const Key, Entry>*> SortedEntries() const;

  std::unordered_map<Key, Entry, KeyHash> metrics_;
};

// Escapes `s` into `out` as JSON string contents (no surrounding quotes). Shared by
// the metrics and trace exporters.
void AppendJsonEscaped(std::string* out, const std::string& s);

}  // namespace silica

#endif  // SILICA_TELEMETRY_METRICS_H_
