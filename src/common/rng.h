// Deterministic pseudo-random number generation for the Silica digital twin.
//
// Every stochastic component (channel noise, mechanical latencies, workload arrivals)
// draws from its own Rng stream so that experiments are reproducible given a seed and
// insensitive to the order in which unrelated components consume randomness.
//
// The generator is xoshiro256** seeded through SplitMix64, which is fast, passes BigCrush,
// and is trivially forkable into independent streams.
#ifndef SILICA_COMMON_RNG_H_
#define SILICA_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace silica {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5117CA) { Seed(seed); }

  void Seed(uint64_t seed);

  // Derives an independent child stream; children with distinct tags never collide.
  Rng Fork(uint64_t tag) const;

  uint64_t NextU64();

  // out[0..n) = the next n NextU64() values, leaving the same end state; the
  // cached Box-Muller variate is neither read nor written.
  void FillU64(uint64_t* out, size_t n);

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform real in [lo, hi).
  double Uniform(double lo, double hi);

  // Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  // Standard normal via Box-Muller (cached second variate).
  double Normal(double mean = 0.0, double stddev = 1.0);

  // Exponential with the given rate (events per unit time).
  double Exponential(double rate);

  // Log-normal where the *underlying* normal has the given mu / sigma.
  double LogNormal(double mu, double sigma);

  // Poisson-distributed count with the given mean (Knuth for small, PTRS for large).
  uint64_t Poisson(double mean);

  // Zipf-distributed rank in [0, n) with exponent s (s=0 is uniform).
  // Uses an inverted-CDF table cached per (n, s) by the caller via ZipfTable.
  uint64_t Zipf(uint64_t n, double s);

  // Checkpoint field list (common/state_io.h): a load after a save reproduces
  // the exact draw sequence, including the cached Box-Muller variate, so
  // forked streams survive checkpoint/restore bit-identically.
  template <class Ar>
  void Visit(Ar& ar) {
    ar(s_, has_cached_normal_, cached_normal_);
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

// Precomputed Zipf sampler: builds the CDF once, then samples in O(log n).
class ZipfTable {
 public:
  ZipfTable(uint64_t n, double s);
  uint64_t Sample(Rng& rng) const;
  uint64_t size() const { return static_cast<uint64_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

}  // namespace silica

#endif  // SILICA_COMMON_RNG_H_
