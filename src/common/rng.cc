#include "common/rng.h"

#include <algorithm>
#include <cmath>


namespace silica {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97f4A7C15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
  has_cached_normal_ = false;
}

Rng Rng::Fork(uint64_t tag) const {
  // Mix the parent state with the tag so children are decorrelated from the parent
  // and from each other.
  uint64_t mixed = s_[0] ^ Rotl(s_[1], 17) ^ (tag * 0x9E3779B97f4A7C15ull);
  return Rng(mixed);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

void Rng::FillU64(uint64_t* out, size_t n) {
  // NextU64's step on local copies, so the state stays in registers.
  uint64_t s0 = s_[0];
  uint64_t s1 = s_[1];
  uint64_t s2 = s_[2];
  uint64_t s3 = s_[3];
  for (size_t i = 0; i < n; ++i) {
    out[i] = Rotl(s1 * 5, 7) * 9;
    const uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = Rotl(s3, 45);
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

double Rng::NextDouble() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<int64_t>(NextU64());
  }
  // Rejection sampling to remove modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t v = NextU64();
  while (v >= limit) {
    v = NextU64();
  }
  return lo + static_cast<int64_t>(v % range);
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::Exponential(double rate) {
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

double Rng::LogNormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

uint64_t Rng::Poisson(double mean) {
  if (mean <= 0.0) {
    return 0;
  }
  if (mean < 30.0) {
    // Knuth's multiplication method.
    const double l = std::exp(-mean);
    uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= NextDouble();
    } while (p > l);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for workload volumes.
  const double x = Normal(mean, std::sqrt(mean));
  return x < 0.5 ? 0 : static_cast<uint64_t>(x + 0.5);
}

uint64_t Rng::Zipf(uint64_t n, double s) {
  ZipfTable table(n, s);
  return table.Sample(*this);
}

ZipfTable::ZipfTable(uint64_t n, double s) {
  cdf_.resize(n);
  double acc = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (auto& c : cdf_) {
    c /= acc;
  }
}

uint64_t ZipfTable::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint64_t>(it - cdf_.begin());
}

}  // namespace silica
