// Fixed-size worker pool used by the disaggregated decode pipeline (Section 3.2).
//
// The production Silica decode stack is a fleet of stateless microservices; the pool is
// the in-process analogue: jobs are independent sector decodes submitted from the read
// path, and the pool can be resized between phases to model elastic scaling.
//
// Jobs run as std::packaged_task<void()>, so an exception thrown by a job is captured
// and rethrown from the future returned by Submit() — never swallowed. Submitting to a
// pool that has been shut down (or is mid-destruction) throws instead of deadlocking.
#ifndef SILICA_COMMON_THREAD_POOL_H_
#define SILICA_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace silica {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Process-wide pool shared by callers that repeatedly fan work out
  // (federation epochs, sweep replications). Workers persist across batches —
  // no teardown/respawn between uses — and the pool grows on demand to at
  // least `min_threads` workers, never shrinking. The instance is leaked
  // deliberately so its workers outlive static destruction order.
  static ThreadPool& Shared(size_t min_threads);

  // Adds workers until size() >= num_threads. No-op when already large enough
  // or after Shutdown(). Existing workers keep running untouched.
  void Grow(size_t num_threads);

  // Reuse bookkeeping: callers bump the generation once per independent batch
  // (a federation epoch, a sweep). The counter outliving many batches with
  // spawned() unchanged is the observable proof that workers persisted.
  uint64_t BeginGeneration() { return ++generation_; }
  uint64_t generation() const { return generation_.load(); }

  // Total workers ever spawned. Equal to size() for a pool that never tore
  // a worker down (this implementation never does before Shutdown()).
  uint64_t spawned() const { return spawned_.load(); }

  // Enqueues a job; the returned future resolves when it completes and rethrows
  // any exception the job raised. Throws std::runtime_error after Shutdown().
  std::future<void> Submit(std::function<void()> job);

  // Blocks until every job submitted so far has finished. Exceptions raised by
  // jobs are reported through their futures, not through Drain.
  void Drain();

  // Stops accepting work, runs the queue dry, and joins the workers. Idempotent;
  // called automatically by the destructor.
  void Shutdown();

  size_t size() const { return num_workers_.load(std::memory_order_acquire); }
  size_t num_threads() const { return size(); }

  // True when the calling thread is one of this pool's workers. Used by
  // ParallelFor to degrade to an inline loop instead of deadlocking on nested
  // submission.
  bool OnWorkerThread() const;

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable drained_cv_;
  size_t in_flight_ = 0;
  bool stopping_ = false;
  std::atomic<size_t> num_workers_{0};
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> spawned_{0};
};

namespace internal {

// What one ParallelFor call shares with the helpers it enlists. Helpers hold it
// by shared_ptr, so one that starts after the call returned still finds it
// alive: it claims a chunk index past the end and leaves without touching the
// caller's frame (fn included).
struct ParallelForState {
  explicit ParallelForState(size_t n_chunks) : chunks(n_chunks), errors(n_chunks) {}

  const size_t chunks;
  std::atomic<size_t> next{0};  // next unclaimed chunk
  // Chunks finished; 32-bit so wait/notify map straight onto a futex.
  std::atomic<uint32_t> done{0};
  std::vector<std::exception_ptr> errors;  // per chunk; written by its runner
};

// Claims chunks until none remain, running each one to its end or its first
// exception. fn is only called for a claimed chunk, and the caller does not
// return before every claimed chunk is done, so fn is alive whenever used.
template <typename Fn>
void RunParallelForChunks(ParallelForState& state, size_t n, Fn& fn) {
  for (size_t c = state.next++; c < state.chunks; c = state.next++) {
    const size_t begin = n * c / state.chunks;
    const size_t end = n * (c + 1) / state.chunks;
    try {
      for (size_t i = begin; i < end; ++i) {
        fn(i);
      }
    } catch (...) {
      state.errors[c] = std::current_exception();
    }
    if (++state.done == state.chunks) {
      state.done.notify_all();
    }
  }
}

}  // namespace internal

// Runs fn(i) for every i in [0, n), handing contiguous index chunks out from a
// shared counter to the calling thread and up to size() pool workers.
// Deterministic by construction: every index runs exactly once and fn must only
// write to state owned by its index (e.g. results[i]), so the outcome is
// independent of the worker count and identical to the serial loop.
//
// The caller claims chunks too and returns as soon as every chunk has finished:
// it waits only on chunks a helper is already running, never on a helper that
// has not started (with every worker busy, the caller runs the whole range).
//
// Falls back to a plain inline loop when pool is null, has at most one worker, or
// the caller is itself a pool worker (nested fan-out would deadlock a saturated
// pool). All chunks run to completion even if one throws; afterwards the first
// exception in chunk order (lowest failing index range) is rethrown to the caller.
template <typename Fn>
void ParallelFor(ThreadPool* pool, size_t n, Fn&& fn) {
  if (n == 0) {
    return;
  }
  if (pool == nullptr || pool->size() <= 1 || n == 1 || pool->OnWorkerThread()) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  // A few chunks per worker evens out skew (sector decode times vary with noise)
  // without paying per-index claim overhead.
  const size_t chunks = std::min(n, pool->size() * 4);
  auto state = std::make_shared<internal::ParallelForState>(chunks);
  const size_t helpers = std::min(pool->size(), chunks - 1);
  for (size_t h = 0; h < helpers; ++h) {
    // A helper may start after this call returns, holding a dangling `fn`; it
    // then claims nothing and never calls it (see RunParallelForChunks).
    pool->Submit([state, n, &fn] { internal::RunParallelForChunks(*state, n, fn); });
  }
  internal::RunParallelForChunks(*state, n, fn);
  for (uint32_t done = state->done; done != chunks; done = state->done) {
    state->done.wait(done);
  }
  for (const std::exception_ptr& error : state->errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace silica

#endif  // SILICA_COMMON_THREAD_POOL_H_
