// Arithmetic the benchmark derives its numbers with, kept free of any system
// dependency so trace_math_test.cc can pin it down exactly:
//
//   * nearest-rank quantiles and the "at least ten samples beyond" rule for
//     choosing which tail percentile a sample count can support;
//   * self time of nested spans (a span minus the union of its children);
//   * callback-gap batch timing: host time of a batch measured from outside as
//     the gap before the first completion callback that batch produced.
#ifndef PERFBENCH_TRACE_MATH_H_
#define PERFBENCH_TRACE_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// Nearest-rank quantile: the smallest sample with at least q*n samples at or
// below it. Returns 0 for an empty input.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

// Samples strictly above the nearest-rank q-quantile position.
inline size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) {
    return 0;
  }
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return n - rank;
}

// Smallest sample count at which the q-quantile has `beyond` samples past it.
inline size_t SamplesNeededFor(double q, size_t beyond = 10) {
  size_t n = 1;
  while (SamplesBeyond(n, q) < beyond) {
    ++n;
  }
  return n;
}

struct Span {
  const char* name = "";
  double start = 0.0;  // seconds
  double end = 0.0;
  int parent = -1;       // index of the enclosing span, -1 for a root
  uint64_t request = 0;  // request id, 0 when the span serves none
};

// Self time of every span: its duration minus the part of [start, end] that
// its direct children cover (overlapping children are counted once).
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start,
                                                              span.end);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = lo;
    for (auto [s, e] : kids) {
      s = std::max(s, cursor);
      e = std::min(e, hi);
      if (e > s) {
        covered += e - s;
        cursor = e;
      }
    }
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

// One completion callback as the benchmark saw it. `batch` identifies the
// batch that produced the completion (0 = not produced by a batch, e.g. a
// rejection or a read served from the write stage). `enter` is when the
// callback began, `leave` when the benchmark's own work in it finished.
struct CallbackEvent {
  double enter = 0.0;
  double leave = 0.0;
  uint64_t batch = 0;
};

struct BatchTimes {
  std::vector<double> per_member;  // one sample per batched completion
  std::vector<double> per_batch;   // one sample per batch
};

// Batch execution time from callback gaps inside one front-end call that
// started at `entry`: a batch's time is the gap between the previous
// callback's end (or `entry`, for the call's first callback) and the first
// callback of the batch. Every completion of that batch gets that sample.
inline BatchTimes BatchExecTimes(double entry,
                                 const std::vector<CallbackEvent>& events) {
  BatchTimes out;
  double previous = entry;
  uint64_t current = 0;
  double current_gap = 0.0;
  for (const CallbackEvent& event : events) {
    const double gap = event.enter - previous;
    if (event.batch == 0) {
      current = 0;
    } else {
      if (event.batch != current) {
        current = event.batch;
        current_gap = gap;
        out.per_batch.push_back(gap);
      }
      out.per_member.push_back(current_gap);
    }
    previous = event.leave;
  }
  return out;
}

inline uint64_t Fnv1a(const std::vector<uint8_t>& bytes,
                      uint64_t hash = 0xcbf29ce484222325ull) {
  for (uint8_t b : bytes) {
    hash = (hash ^ b) * 0x100000001b3ull;
  }
  return hash;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_MATH_H_
