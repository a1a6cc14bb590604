// Self-test of the benchmark's own arithmetic (trace_math.h): percentile
// selection with ten samples beyond, self time over nested spans, and the
// callback-gap batch timing. Exits nonzero on the first mismatch.
//
//   cmake --build <dir> --target perfbench_selftest && <dir>/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "trace_math.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "trace_math_test:%d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::abs(a - b) < 1e-12; }

void TestQuantile() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) {
    v.push_back(static_cast<double>(1001 - i));  // unsorted on purpose
  }
  EXPECT(Near(perfbench::Quantile(v, 0.5), 500.0));
  EXPECT(Near(perfbench::Quantile(v, 0.99), 990.0));
  EXPECT(Near(perfbench::Quantile(v, 1.0), 1000.0));
  EXPECT(Near(perfbench::Quantile(v, 0.0), 1.0));
  EXPECT(Near(perfbench::Quantile({}, 0.5), 0.0));
  EXPECT(Near(perfbench::Quantile({7.0}, 0.99), 7.0));
}

void TestSamplesBeyond() {
  // p99 of 1000 samples is the 990th; ten lie beyond it.
  EXPECT(perfbench::SamplesBeyond(1000, 0.99) == 10);
  EXPECT(perfbench::SamplesBeyond(999, 0.99) == 9);
  EXPECT(perfbench::SamplesNeededFor(0.99) == 1000);
  EXPECT(perfbench::SamplesNeededFor(0.999) == 10000);
  EXPECT(perfbench::SamplesNeededFor(0.5) == 20);
  EXPECT(perfbench::SamplesBeyond(0, 0.5) == 0);
}

void TestSelfTimes() {
  using perfbench::Span;
  // root [0,10] with children [1,3] and [2,6] (overlapping) and [8,12]
  // (clipped at the root's end); [2,6] has a grandchild [3,4] that must not
  // be subtracted from the root a second time.
  std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1, 0}, {"a", 1.0, 3.0, 0, 1},
      {"b", 2.0, 6.0, 0, 2},      {"c", 8.0, 12.0, 0, 3},
      {"b.child", 3.0, 4.0, 2, 2}, {"other", 20.0, 21.0, -1, 0},
  };
  const auto self = perfbench::SelfTimes(spans);
  EXPECT(Near(self[0], 10.0 - 5.0 - 2.0));  // [1,6] and [8,10] covered
  EXPECT(Near(self[1], 2.0));
  EXPECT(Near(self[2], 3.0));  // 4 minus its child's 1
  EXPECT(Near(self[3], 4.0));
  EXPECT(Near(self[4], 1.0));
  EXPECT(Near(self[5], 1.0));
}

void TestBatchExecTimes() {
  using perfbench::CallbackEvent;
  // A Pump entered at t=100: a rejection callback (not a batch), then batch 7
  // with three completions, then batch 8 with one. Each gap runs from the end
  // of the previous callback, so the callbacks' own work is excluded.
  const std::vector<CallbackEvent> events = {
      {100.5, 100.6, 0},  // rejection
      {102.6, 102.7, 7},  // batch 7 ran for 2.0 after the rejection's end
      {102.7, 102.8, 7},
      {102.8, 102.9, 7},
      {103.4, 103.5, 8},  // batch 8 ran for 0.5
  };
  const auto t = perfbench::BatchExecTimes(100.0, events);
  EXPECT(t.per_batch.size() == 2);
  EXPECT(t.per_member.size() == 4);
  EXPECT(Near(t.per_batch[0], 2.0));
  EXPECT(Near(t.per_batch[1], 0.5));
  EXPECT(Near(t.per_member[0], 2.0) && Near(t.per_member[2], 2.0));
  EXPECT(Near(t.per_member[3], 0.5));

  // The first batch of a call counts from the call's entry.
  const auto first =
      perfbench::BatchExecTimes(10.0, {{10.25, 10.5, 3}, {10.5, 10.75, 3}});
  EXPECT(first.per_batch.size() == 1 && Near(first.per_batch[0], 0.25));
  EXPECT(Near(first.per_member[1], 0.25));

  // A non-batch completion between two runs of the same key splits them.
  const auto split = perfbench::BatchExecTimes(
      0.0, {{1.0, 1.0, 5}, {1.5, 1.5, 0}, {2.5, 2.5, 5}});
  EXPECT(split.per_batch.size() == 2 && Near(split.per_batch[1], 1.0));
}

void TestFnv() {
  EXPECT(perfbench::Fnv1a({}) == 0xcbf29ce484222325ull);
  EXPECT(perfbench::Fnv1a({'a'}) == 0xaf63dc4c8601ec8cull);
}

}  // namespace

int main() {
  TestQuantile();
  TestSamplesBeyond();
  TestSelfTimes();
  TestBatchExecTimes();
  TestFnv();
  if (failures == 0) {
    std::printf("trace_math_test: all checks passed\n");
  }
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
