// Deterministic parallel sweep/replication driver.
//
// Experiment sweeps (silica_sim --replications, the bench grids) are embarrassingly
// parallel: every cell is an independent SimulateLibrary call with its own config,
// trace, and RNG streams. RunSweep fans the cells out across a ThreadPool while
// keeping the *output* byte-identical to a serial sweep for every thread count:
// workers only produce results[i], and the caller prints them in index order after
// the pool drains. Nothing in the sim shares mutable state across runs (the LDPC
// build cache and telemetry registries are internally synchronized; a run without
// telemetry touches only its own Sim), so cell results are independent of K.
//
// Seeds for replicated runs come from SweepSeed: replication 0 keeps the base seed
// (a single replication is bit-identical to a plain run), later replications fork
// the base stream by index, so streams never collide and adding replications never
// perturbs earlier ones.
#ifndef SILICA_CORE_SWEEP_H_
#define SILICA_CORE_SWEEP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace silica {

// Seed for replication `i` of a sweep with base seed `base`.
inline uint64_t SweepSeed(uint64_t base, size_t i) {
  if (i == 0) {
    return base;
  }
  return Rng(base).Fork(static_cast<uint64_t>(i)).NextU64();
}

// Runs fn(i) for i in [0, n) and returns the results indexed by i. With
// threads == 1 this is a plain serial loop; otherwise the calls run on a
// ThreadPool. Results are identical for every thread count as long as fn is a
// pure function of its index (see file comment). If a call throws, the sweep
// still runs every cell and the first exception in chunk order is rethrown.
// threads < 1 throws std::invalid_argument.
template <typename Result, typename Fn>
std::vector<Result> RunSweep(size_t n, int threads, Fn&& fn) {
  if (threads < 1) {
    throw std::invalid_argument("RunSweep: threads must be >= 1 (got " +
                                std::to_string(threads) + ")");
  }
  std::vector<Result> results(n);
  if (threads == 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      results[i] = fn(i);
    }
    return results;
  }
  // Sweeps share the process-wide pool so back-to-back sweeps (and federation
  // epochs) reuse warm workers instead of respawning a pool per call. The pool
  // may be larger than `threads` from an earlier caller; determinism does not
  // depend on the worker count (see file comment), only chunk fan-out does.
  const size_t workers = std::min(n, static_cast<size_t>(threads));
  ThreadPool& pool = ThreadPool::Shared(workers);
  pool.BeginGeneration();
  ParallelFor(&pool, n, [&](size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace silica

#endif  // SILICA_CORE_SWEEP_H_
