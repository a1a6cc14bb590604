// Shared pieces of the benchmark program: command-line options, the span
// recorder used by traced runs, and the report every workload fills in.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "trace_math.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;   // timed host seconds to accumulate
  bool trace = false;      // per-layer run (spans + counters + isolation)
  std::string trace_out;   // where a traced run writes its spans
  int threads = 1;         // min(4, nproc)
  int nproc = 1;
};

// Seconds since process start on the monotonic clock.
inline double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

// Spans around every call the benchmark makes into a layer. Kept in memory
// and written once at exit. When disabled, Begin/End cost one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) {
      spans_.reserve(1 << 16);
    }
  }

  bool enabled() const { return enabled_; }

  int Begin(const char* name, uint64_t request = 0) {
    if (!enabled_) {
      return -1;
    }
    Span span;
    span.name = name;
    span.start = Now();
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void End(int index) {
    if (index < 0) {
      return;
    }
    spans_[static_cast<size_t>(index)].end = Now();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self times of every span named `name`.
  std::vector<double> SelfTimesOf(const std::string& name) const;
  double TotalSelf(const std::string& name) const;

  // Chrome trace_event JSON ("X" events, microseconds) with parent and
  // request ids in args; loads in Perfetto and chrome://tracing.
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  mutable std::vector<double> self_cache_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, uint64_t request = 0)
      : recorder_(recorder), index_(recorder.Begin(name, request)) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run produced. `end_to_end` is filled by every run;
// `per_layer` only by traced runs.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, std::string>> notes;  // host-line extras

  void Violation(const std::string& what) {
    if (correct || violations < 20) {
      std::fprintf(stderr, "perfbench: correctness gate: %s\n", what.c_str());
    }
    ++violations;
    correct = false;
  }
  void E2e(const char* name, double value, const char* unit) {
    end_to_end.push_back(Metric{name, value, unit});
  }
  void Layer(const char* name, double value, const char* unit) {
    per_layer.push_back(Metric{name, value, unit});
  }
  int violations = 0;
};

// Deterministic payload bytes for an object: a SplitMix64 stream keyed by the
// object's content seed. The benchmark regenerates them to check every Get.
std::vector<uint8_t> Payload(uint64_t content_seed, size_t size);

// Per-repetition values joined for the host line, e.g. "201.3 198.7".
std::string JoinValues(const std::vector<double>& values);

// Peak resident set size of this process, in MB.
double PeakRssMb();

// Timed phase of one repetition: the workload keeps repeating (fresh set-up,
// fresh timed phase) until the summed timed seconds reach the target and
// there are enough repetitions for medians.
struct RepTimer {
  static constexpr int kMinReps = 3;
  double target_s = 0.0;
  double timed_s = 0.0;
  int reps = 0;
  bool more() const { return reps < kMinReps || timed_s < target_s; }
};

// The workloads. Each fills `report`; `spans` is enabled only in traced runs.
void RunIngest(const Options& options, SpanRecorder& spans, Report& report);
void RunRecall(const Options& options, SpanRecorder& spans, Report& report);
void RunLibrary(const Options& options, SpanRecorder& spans, Report& report);
void RunGeo(const Options& options, SpanRecorder& spans, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
