#include "channel/soft_decoder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace silica {
namespace {

// The SIMD kernels read measurements as interleaved (retardance, azimuth)
// doubles.
static_assert(std::is_standard_layout_v<VoxelObservable> &&
              sizeof(VoxelObservable) == 2 * sizeof(double) &&
              offsetof(VoxelObservable, retardance) == 0 &&
              offsetof(VoxelObservable, azimuth) == sizeof(double));

[[noreturn]] void Reject(const char* field, const char* requirement, double value) {
  char got[32];
  std::snprintf(got, sizeof(got), "%g", value);
  throw std::invalid_argument(std::string("SoftDecoder: ") + field + " must be " +
                              requirement + ", got " + got);
}

void RequirePositive(const char* field, double value) {
  if (!std::isfinite(value) || value <= 0.0) {
    Reject(field, "finite and > 0", value);
  }
}

// 1 / denominator narrowed to float. An overflow there would turn exact matches
// into 0 * inf = NaN, so a `field` that small is rejected too.
float FloatReciprocal(const char* field, double value, double denominator) {
  const double r = 1.0 / denominator;
  if (!(r <= std::numeric_limits<float>::max())) {
    Reject(field, "large enough for float demapping", value);
  }
  return static_cast<float>(r);
}

// The shared float exp of the demapper, for x <= 0. The comparisons are written
// as the x86 max/min instructions evaluate them (a NaN argument clamps to the
// lower bound), so every tier agrees on every input.
[[gnu::always_inline]] inline float DemapExp(float x) {
  x = x > demap::kExpMinArg ? x : demap::kExpMinArg;
  const float t = x * demap::kLog2e + demap::kRoundMagic;  // round to nearest
  const float n = t - demap::kRoundMagic;
  float r = x - n * demap::kLn2Hi;
  r = r - n * demap::kLn2Lo;
  float p = demap::kExpP[0];
  for (int i = 1; i < 6; ++i) {
    p = p * r + demap::kExpP[i];
  }
  p = p * (r * r);
  p = p + r;
  p = p + 1.0f;
  // n >= -126 after the clamp, so 2^n is a normal float.
  const int32_t k =
      std::bit_cast<int32_t>(t) - std::bit_cast<int32_t>(demap::kRoundMagic);
  return p * std::bit_cast<float>(static_cast<uint32_t>(k + 127) << 23);
}

// The shared float log of the demapper, for positive normal y.
[[gnu::always_inline]] inline float DemapLog(float y) {
  const uint32_t bits = std::bit_cast<uint32_t>(y);
  float e = static_cast<float>(static_cast<int32_t>(bits >> 23) - 126);
  const float m = std::bit_cast<float>((bits & 0x007FFFFFu) | 0x3F000000u);
  float x;
  if (m < demap::kSqrtHalf) {
    e = e - 1.0f;
    x = (m + m) - 1.0f;
  } else {
    x = m - 1.0f;
  }
  const float z = x * x;
  float q = demap::kLogQ[0];
  for (int i = 1; i < 9; ++i) {
    q = q * x + demap::kLogQ[i];
  }
  q = (q * x) * z;
  q = q + e * demap::kLn2Lo;
  q = q - z * 0.5f;
  return (x + q) + e * demap::kLn2Hi;
}

// Azimuth reduction mod pi, as the read channel wraps it; fmod is exact, so
// every tier reduces to the same double.
double ReduceAzimuth(double a) {
  a = std::fmod(a, demap::kPi);
  if (a < 0.0) {
    a += demap::kPi;
  }
  return a;
}

// The scalar reference of the fused demapper and the fallback of every tier.
// Vector tiers perform exactly these IEEE operations in this order, one voxel
// per lane. Instantiated per constellation size so every per-symbol and per-bit
// loop has a constant trip count.
template <int kBits>
void ScalarSoftDemap(const SoftDemapTables& t, const double* observables,
                     size_t voxels, float* llrs) {
  constexpr int kAzimuthBits = demap::AzimuthBits(kBits);
  constexpr int kRetardanceLevels = 1 << (kBits - kAzimuthBits);
  constexpr int kAzimuthLevels = 1 << kAzimuthBits;
  constexpr int kSymbols = 1 << kBits;
  for (size_t v = 0; v < voxels; ++v) {
    const double yr = observables[2 * v];
    double ya = observables[2 * v + 1];
    if (!(ya >= 0.0 && ya < demap::kPi)) {
      ya = ReduceAzimuth(ya);
    }
    // Per-axis scaled squared distances: the constellation is separable.
    float qr[kRetardanceLevels];
    float qa[kAzimuthLevels];
    for (int e = 0; e < kRetardanceLevels; ++e) {
      const auto dr = static_cast<float>(yr - t.retardance_centre[e]);
      qr[e] = (dr * dr) * t.inv_two_var_retardance;
    }
    for (int a = 0; a < kAzimuthLevels; ++a) {
      const double d = std::fabs(ya - t.azimuth_centre[a]);
      const double wrapped = demap::kPi - d;
      const auto da = static_cast<float>(wrapped < d ? wrapped : d);
      qa[a] = (da * da) * t.inv_two_var_azimuth;
    }
    // Costs are negated log-likelihoods; the missing-voxel hypothesis sees
    // retardance near zero and an uninformative azimuth.
    const auto yf = static_cast<float>(yr);
    const float miss_cost = (yf * yf) * t.inv_two_var_retardance - t.log_miss_prior;
    float cost[kSymbols];
    float best = miss_cost;
    for (int s = 0; s < kSymbols; ++s) {
      cost[s] = qr[s >> kAzimuthBits] + qa[s & (kAzimuthLevels - 1)];
      best = cost[s] < best ? cost[s] : best;
    }
    float total = 0.0f;
    float p0[kBits] = {};
    float p1[kBits] = {};
    for (int s = 0; s < kSymbols; ++s) {
      const float w = DemapExp((best - cost[s]) * t.inv_temperature);
      total = total + w;
      for (int b = 0; b < kBits; ++b) {
        if ((s >> b) & 1) {
          p1[b] = p1[b] + w;
        } else {
          p0[b] = p0[b] + w;
        }
      }
    }
    const float w_miss = DemapExp((best - miss_cost) * t.inv_temperature);
    total = total + w_miss;
    // The missing mass is symbol-agnostic: spread uniformly, half of it lands
    // on each value of every bit, so a blank-looking voxel flattens toward an
    // erasure. log((P0/T + eps) / (P1/T + eps)) == log((P0 + eps T) / (P1 + eps T)).
    const float half_miss = w_miss * 0.5f;
    const float floor = demap::kLlrEpsilon * total;
    for (int b = 0; b < kBits; ++b) {
      const float num = (p0[b] + half_miss) + floor;
      const float den = (p1[b] + half_miss) + floor;
      float llr = DemapLog(num / den);
      llr = llr > -demap::kLlrClamp ? llr : -demap::kLlrClamp;
      llr = llr < demap::kLlrClamp ? llr : demap::kLlrClamp;
      llrs[v * kBits + static_cast<size_t>(b)] = llr;
    }
  }
}

void ScalarSoftDemap(const SoftDemapTables& t, const double* observables,
                     size_t voxels, float* llrs) {
  switch (t.bits_per_voxel) {
    case 1: return ScalarSoftDemap<1>(t, observables, voxels, llrs);
    case 2: return ScalarSoftDemap<2>(t, observables, voxels, llrs);
    case 3: return ScalarSoftDemap<3>(t, observables, voxels, llrs);
    case 4: return ScalarSoftDemap<4>(t, observables, voxels, llrs);
    case 5: return ScalarSoftDemap<5>(t, observables, voxels, llrs);
    case 6: return ScalarSoftDemap<6>(t, observables, voxels, llrs);
  }
}

}  // namespace

SoftDecoder::SoftDecoder(const Constellation& constellation, ReadChannelParams channel,
                         SoftDecoderParams params)
    : constellation_(&constellation), channel_(channel), params_(params) {
  RequirePositive("retardance_sigma", channel.retardance_sigma);
  RequirePositive("azimuth_sigma", channel.azimuth_sigma);
  RequirePositive("temperature", params.temperature);
  if (!(params.miss_prior > 0.0 && params.miss_prior < 1.0)) {
    Reject("miss_prior", "in (0, 1)", params.miss_prior);
  }
  SoftDemapTables& t = tables_;
  t.bits_per_voxel = constellation.bits_per_voxel();
  const int azimuth_bits = demap::AzimuthBits(t.bits_per_voxel);
  if (constellation.num_azimuth_levels() != 1 << azimuth_bits) {
    throw std::logic_error("SoftDecoder: constellation split differs from the demapper's");
  }
  for (int e = 0; e < constellation.num_retardance_levels(); ++e) {
    t.retardance_centre[e] =
        constellation.Point(static_cast<uint16_t>(e << azimuth_bits)).retardance;
  }
  for (int a = 0; a < constellation.num_azimuth_levels(); ++a) {
    t.azimuth_centre[a] = constellation.Point(static_cast<uint16_t>(a)).azimuth;
  }
  const double sr = channel.retardance_sigma;
  const double sa = channel.azimuth_sigma;
  t.inv_two_var_retardance = FloatReciprocal("retardance_sigma", sr, 2.0 * sr * sr);
  t.inv_two_var_azimuth = FloatReciprocal("azimuth_sigma", sa, 2.0 * sa * sa);
  t.log_miss_prior = static_cast<float>(std::log(params.miss_prior));
  t.inv_temperature =
      FloatReciprocal("temperature", params.temperature, params.temperature);
}

SectorPosteriors SoftDecoder::Decode(
    std::span<const VoxelObservable> measurements) const {
  const int num_symbols = constellation_->num_symbols();
  SectorPosteriors out;
  out.num_symbols = num_symbols;
  out.probs.resize(measurements.size() * static_cast<size_t>(num_symbols));

  const double var_r = channel_.retardance_sigma * channel_.retardance_sigma;
  const double var_a = channel_.azimuth_sigma * channel_.azimuth_sigma;
  const double inv_temp = 1.0 / params_.temperature;

  std::vector<double> log_lik(static_cast<size_t>(num_symbols) + 1);

  for (size_t v = 0; v < measurements.size(); ++v) {
    const VoxelObservable& y = measurements[v];
    double max_ll = -1e300;
    for (int s = 0; s < num_symbols; ++s) {
      const VoxelObservable& p = constellation_->Point(static_cast<uint16_t>(s));
      const double dr = y.retardance - p.retardance;
      const double da = Constellation::WrappedAzimuthDelta(y.azimuth, p.azimuth);
      const double ll = -(dr * dr / (2.0 * var_r) + da * da / (2.0 * var_a));
      log_lik[static_cast<size_t>(s)] = ll;
      max_ll = std::max(max_ll, ll);
    }
    // Missing-voxel hypothesis: retardance near zero, azimuth uninformative.
    {
      const double dr = y.retardance;
      const double ll = -(dr * dr / (2.0 * var_r)) + std::log(params_.miss_prior);
      log_lik[static_cast<size_t>(num_symbols)] = ll;
      max_ll = std::max(max_ll, ll);
    }

    double total = 0.0;
    for (auto& ll : log_lik) {
      ll = std::exp((ll - max_ll) * inv_temp);
      total += ll;
    }
    // The missing mass is symbol-agnostic: spread it uniformly so the posterior
    // flattens (erasure-like) when the voxel looks blank.
    const double miss_share = log_lik[static_cast<size_t>(num_symbols)] /
                              static_cast<double>(num_symbols);
    for (int s = 0; s < num_symbols; ++s) {
      out.probs[v * static_cast<size_t>(num_symbols) + static_cast<size_t>(s)] =
          static_cast<float>((log_lik[static_cast<size_t>(s)] + miss_share) / total);
    }
  }
  return out;
}

std::vector<float> SoftDecoder::DemapToLlrs(
    std::span<const VoxelObservable> measurements) const {
  std::vector<float> llrs(measurements.size() *
                          static_cast<size_t>(tables_.bits_per_voxel));
  const auto* observables = reinterpret_cast<const double*>(measurements.data());
  if (const auto kernel = ActiveKernels().soft_demap) {
    kernel(tables_, observables, measurements.size(), llrs.data());
  } else {
    ScalarSoftDemap(tables_, observables, measurements.size(), llrs.data());
  }
  return llrs;
}

}  // namespace silica
