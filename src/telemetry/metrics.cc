#include "telemetry/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "common/state_io.h"

namespace silica {
namespace {

// Formats a double the way Prometheus clients do: integral values without a
// fractional part, everything else with enough digits to round-trip.
std::string FormatNumber(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v)) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

void AppendLabelText(std::string* out, const MetricLabels& labels,
                     const char* extra_key = nullptr,
                     const char* extra_value = nullptr) {
  if (labels.empty() && extra_key == nullptr) {
    return;
  }
  out->push_back('{');
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) {
      out->push_back(',');
    }
    first = false;
    out->append(key);
    out->append("=\"");
    out->append(value);
    out->push_back('"');
  }
  if (extra_key != nullptr) {
    if (!first) {
      out->push_back(',');
    }
    out->append(extra_key);
    out->append("=\"");
    out->append(extra_value);
    out->push_back('"');
  }
  out->push_back('}');
}

constexpr double kSummaryQuantiles[] = {0.5, 0.9, 0.99, 0.999};

}  // namespace

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

std::string MetricsRegistry::EncodeLabels(const MetricLabels& labels) {
  std::string encoded;
  for (const auto& [key, value] : labels) {
    encoded.append(key);
    encoded.push_back('\0');
    encoded.append(value);
    encoded.push_back('\0');
  }
  return encoded;
}

MetricsRegistry::Entry& MetricsRegistry::FindOrCreate(const std::string& name,
                                                      MetricLabels labels,
                                                      Kind kind) {
  std::sort(labels.begin(), labels.end());
  auto [it, inserted] = metrics_.try_emplace(Key{name, EncodeLabels(labels)});
  Entry& entry = it->second;
  if (inserted) {
    entry.kind = kind;
    entry.labels = std::move(labels);
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
  } else if (entry.kind != kind) {
    throw std::invalid_argument("MetricsRegistry: kind mismatch for metric " + name);
  }
  return entry;
}

const MetricsRegistry::Entry* MetricsRegistry::Find(const std::string& name,
                                                    const MetricLabels& labels,
                                                    Kind kind) const {
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  const auto it = metrics_.find(Key{name, EncodeLabels(sorted)});
  if (it == metrics_.end() || it->second.kind != kind) {
    return nullptr;
  }
  return &it->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name, MetricLabels labels) {
  return *FindOrCreate(name, std::move(labels), Kind::kCounter).counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, MetricLabels labels) {
  return *FindOrCreate(name, std::move(labels), Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         MetricLabels labels) {
  return *FindOrCreate(name, std::move(labels), Kind::kHistogram).histogram;
}

double MetricsRegistry::CounterValue(const std::string& name,
                                     const MetricLabels& labels) const {
  const Entry* entry = Find(name, labels, Kind::kCounter);
  return entry != nullptr ? entry->counter->value() : 0.0;
}

double MetricsRegistry::GaugeValue(const std::string& name,
                                   const MetricLabels& labels) const {
  const Entry* entry = Find(name, labels, Kind::kGauge);
  return entry != nullptr ? entry->gauge->value() : 0.0;
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name,
                                                const MetricLabels& labels) const {
  const Entry* entry = Find(name, labels, Kind::kHistogram);
  return entry != nullptr ? entry->histogram.get() : nullptr;
}

std::vector<const std::pair<const MetricsRegistry::Key, MetricsRegistry::Entry>*>
MetricsRegistry::SortedEntries() const {
  std::vector<const std::pair<const Key, Entry>*> sorted;
  sorted.reserve(metrics_.size());
  for (const auto& item : metrics_) {
    sorted.push_back(&item);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return sorted;
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (const auto& [key, entry] : other.metrics_) {
    Entry& mine = FindOrCreate(key.first, entry.labels, entry.kind);
    switch (entry.kind) {
      case Kind::kCounter:
        mine.counter->Increment(entry.counter->value());
        break;
      case Kind::kGauge:
        mine.gauge->Set(entry.gauge->value());
        break;
      case Kind::kHistogram:
        mine.histogram->Merge(*entry.histogram);
        break;
    }
  }
}

template <class Ar>
void MetricsRegistry::Visit(Ar& ar) {
  struct Item {
    std::string name;
    MetricLabels labels;
    Kind kind = Kind::kCounter;
    Entry* entry = nullptr;
  };
  std::vector<Item> items;
  if constexpr (!Ar::kLoading) {
    for (const auto* sorted : SortedEntries()) {
      const auto& [key, entry] = *sorted;
      items.push_back(
          {key.first, entry.labels, entry.kind, &metrics_.find(key)->second});
    }
  }
  ar.Seq(items, [this](Ar& a, Item& item) {
    a(item.name, item.labels);
    a.Enum(item.kind, Kind::kHistogram,
           "MetricsRegistry checkpoint: metric kind out of range");
    if constexpr (Ar::kLoading) {
      item.entry = &FindOrCreate(item.name, item.labels, item.kind);
    }
    switch (item.kind) {
      case Kind::kCounter:
        a(item.entry->counter->value_);
        break;
      case Kind::kGauge:
        a(item.entry->gauge->value_);
        break;
      case Kind::kHistogram:
        a(*item.entry->histogram);
        break;
    }
  });
}

template void MetricsRegistry::Visit(StateWriter&);
template void MetricsRegistry::Visit(StateReader&);

std::string MetricsRegistry::ToPrometheusText() const {
  std::string out;
  std::string last_typed;  // emit one # TYPE line per metric name
  for (const auto* item : SortedEntries()) {
    const auto& [key, entry] = *item;
    const std::string& name = key.first;
    if (name != last_typed) {
      out.append("# TYPE ");
      out.append(name);
      switch (entry.kind) {
        case Kind::kCounter:
          out.append(" counter\n");
          break;
        case Kind::kGauge:
          out.append(" gauge\n");
          break;
        case Kind::kHistogram:
          out.append(" summary\n");
          break;
      }
      last_typed = name;
    }
    switch (entry.kind) {
      case Kind::kCounter:
        out.append(name);
        AppendLabelText(&out, entry.labels);
        out.push_back(' ');
        out.append(FormatNumber(entry.counter->value()));
        out.push_back('\n');
        break;
      case Kind::kGauge:
        out.append(name);
        AppendLabelText(&out, entry.labels);
        out.push_back(' ');
        out.append(FormatNumber(entry.gauge->value()));
        out.push_back('\n');
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        for (const double q : kSummaryQuantiles) {
          out.append(name);
          AppendLabelText(&out, entry.labels, "quantile", FormatNumber(q).c_str());
          out.push_back(' ');
          out.append(FormatNumber(h.Percentile(q)));
          out.push_back('\n');
        }
        out.append(name).append("_sum");
        AppendLabelText(&out, entry.labels);
        out.push_back(' ');
        out.append(FormatNumber(h.sum()));
        out.push_back('\n');
        out.append(name).append("_count");
        AppendLabelText(&out, entry.labels);
        out.push_back(' ');
        out.append(FormatNumber(static_cast<double>(h.count())));
        out.push_back('\n');
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  // Each kind maps serialized "name{labels}" -> value (or histogram object).
  std::string counters;
  std::string gauges;
  std::string histograms;
  for (const auto* item : SortedEntries()) {
    const auto& [key, entry] = *item;
    std::string label = key.first;
    AppendLabelText(&label, entry.labels);
    std::string* section = entry.kind == Kind::kCounter  ? &counters
                           : entry.kind == Kind::kGauge ? &gauges
                                                        : &histograms;
    if (!section->empty()) {
      section->append(",");
    }
    section->append("\n    \"");
    AppendJsonEscaped(section, label);
    section->append("\": ");
    switch (entry.kind) {
      case Kind::kCounter:
        section->append(FormatNumber(entry.counter->value()));
        break;
      case Kind::kGauge:
        section->append(FormatNumber(entry.gauge->value()));
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        section->append("{\"count\": ");
        section->append(FormatNumber(static_cast<double>(h.count())));
        section->append(", \"sum\": ");
        section->append(FormatNumber(h.sum()));
        section->append(", \"mean\": ");
        section->append(FormatNumber(h.mean()));
        section->append(", \"min\": ");
        section->append(FormatNumber(h.min()));
        section->append(", \"max\": ");
        section->append(FormatNumber(h.max()));
        for (const double q : kSummaryQuantiles) {
          section->append(", \"p");
          section->append(FormatNumber(q * 100.0));
          section->append("\": ");
          section->append(FormatNumber(h.Percentile(q)));
        }
        section->append("}");
        break;
      }
    }
  }
  std::string out = "{\n  \"counters\": {";
  out.append(counters);
  out.append(counters.empty() ? "}" : "\n  }");
  out.append(",\n  \"gauges\": {");
  out.append(gauges);
  out.append(gauges.empty() ? "}" : "\n  }");
  out.append(",\n  \"histograms\": {");
  out.append(histograms);
  out.append(histograms.empty() ? "}" : "\n  }");
  out.append("\n}\n");
  return out;
}

}  // namespace silica
