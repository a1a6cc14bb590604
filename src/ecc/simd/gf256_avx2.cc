// x86-64 AVX2 tier: shuffled-nibble-lookup GF kernels, the vectorized LDPC
// min-sum check-node update, the fused soft demapper and the read channel's
// Box-Muller noise.
//
// The GF(256) trick (classic SSSE3 technique, run at AVX2 width): a product
// c*x splits over the nibbles of x, c*x = c*(x & 0xF) ^ c*(x >> 4 << 4), so two
// 16-entry tables per coefficient turn multiplication into two PSHUFBs and an
// XOR — 32 products per iteration instead of one log/exp lookup chain per byte.
// This beats log/exp tables because PSHUFB does 32 parallel lookups from a
// register with no memory traffic, while log/exp needs three dependent L1 loads
// per byte and a zero-guard branch. GF(2^16) runs the same trick over four
// nibbles with the product's low and high bytes in separate shuffle planes.
//
// Bit-identity with the scalar tier is structural: GF arithmetic is exact, and
// the float min-sum kernel performs the same IEEE operations (no FMA, same
// per-edge evaluation order) as the scalar loop. gf256_kernels_test.cc pins it.
//
// This file is compiled with -mavx2 (x86-64 builds only); nothing here may run
// before the __builtin_cpu_supports check in Avx2Kernels().
#include "ecc/simd/gf256_kernels.h"

#if defined(__x86_64__) && !defined(SILICA_DISABLE_SIMD)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <cmath>
#include <limits>

namespace silica {
namespace {

// Carry-less field multiply used only to build lookup tables (kept local so
// table construction has no dependency on the log/exp statics in gf256.cc).
uint8_t GfMul8(uint8_t a, uint8_t b) {
  uint8_t r = 0;
  while (b != 0) {
    if (b & 1) {
      r ^= a;
    }
    const bool carry = (a & 0x80) != 0;
    a = static_cast<uint8_t>(a << 1);
    if (carry) {
      a ^= 0x1D;  // x^8 + x^4 + x^3 + x^2 + 1 with the x^8 bit dropped
    }
    b >>= 1;
  }
  return r;
}

// Per-coefficient nibble product tables: lo[c][n] = c*n, hi[c][n] = c*(n<<4).
struct NibbleTables {
  alignas(16) uint8_t lo[256][16];
  alignas(16) uint8_t hi[256][16];

  NibbleTables() {
    for (int c = 0; c < 256; ++c) {
      for (int n = 0; n < 16; ++n) {
        lo[c][n] = GfMul8(static_cast<uint8_t>(c), static_cast<uint8_t>(n));
        hi[c][n] = GfMul8(static_cast<uint8_t>(c), static_cast<uint8_t>(n << 4));
      }
    }
  }
};

const NibbleTables& tables() {
  static const NibbleTables t;  // built on first kernel call, after the CPU check
  return t;
}

void Avx2XorAccumulate(uint8_t* dst, const uint8_t* src, size_t len) {
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, s));
  }
  for (; i < len; ++i) {
    dst[i] ^= src[i];
  }
}

void Avx2MulAccumulate(uint8_t* dst, const uint8_t* src, size_t len,
                       uint8_t coeff) {
  if (coeff == 1) {
    Avx2XorAccumulate(dst, src, len);
    return;
  }
  const NibbleTables& t = tables();
  const __m256i tlo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[coeff])));
  const __m256i thi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[coeff])));
  const __m256i nib = _mm256_set1_epi8(0x0F);
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i plo = _mm256_shuffle_epi8(tlo, _mm256_and_si256(s, nib));
    const __m256i phi = _mm256_shuffle_epi8(
        thi, _mm256_and_si256(_mm256_srli_epi16(s, 4), nib));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, _mm256_xor_si256(plo, phi)));
  }
  for (; i < len; ++i) {
    const uint8_t s = src[i];
    dst[i] ^= static_cast<uint8_t>(t.lo[coeff][s & 0x0F] ^ t.hi[coeff][s >> 4]);
  }
}

void Avx2ScaleInPlace(uint8_t* data, size_t len, uint8_t coeff) {
  const NibbleTables& t = tables();
  const __m256i tlo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[coeff])));
  const __m256i thi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[coeff])));
  const __m256i nib = _mm256_set1_epi8(0x0F);
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i plo = _mm256_shuffle_epi8(tlo, _mm256_and_si256(s, nib));
    const __m256i phi = _mm256_shuffle_epi8(
        thi, _mm256_and_si256(_mm256_srli_epi16(s, 4), nib));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(data + i),
                        _mm256_xor_si256(plo, phi));
  }
  for (; i < len; ++i) {
    const uint8_t s = data[i];
    data[i] = static_cast<uint8_t>(t.lo[coeff][s & 0x0F] ^ t.hi[coeff][s >> 4]);
  }
}

// GF(2^16): product = XOR over the four nibbles of the word. Table k holds
// coeff * (n << 4k), split into a low-byte and a high-byte shuffle plane so
// PSHUFB can produce 16-bit products from byte lookups. The tables are built
// per call from the 16 basis products coeff * x^i (one doubling each): entry n
// of table k is entry n-without-its-lowest-bit XOR that bit's basis product.
void Avx2MulAccumulate16(uint16_t* dst, const uint16_t* src, size_t len,
                         uint16_t coeff) {
  uint16_t basis[16];
  basis[0] = coeff;
  for (int i = 1; i < 16; ++i) {
    const uint16_t prev = basis[i - 1];
    // x^16 = x^12 + x^3 + x + 1 (the field polynomial 0x1100B).
    basis[i] = static_cast<uint16_t>((prev << 1) ^ ((prev & 0x8000) != 0 ? 0x100B : 0));
  }
  alignas(16) uint8_t lo8[4][16];
  alignas(16) uint8_t hi8[4][16];
  for (int k = 0; k < 4; ++k) {
    uint16_t table[16];
    table[0] = 0;
    for (unsigned n = 1; n < 16; ++n) {
      table[n] = static_cast<uint16_t>(table[n & (n - 1)] ^
                                       basis[4 * k + std::countr_zero(n)]);
    }
    for (int n = 0; n < 16; ++n) {
      lo8[k][n] = static_cast<uint8_t>(table[n] & 0xFF);
      hi8[k][n] = static_cast<uint8_t>(table[n] >> 8);
    }
  }
  __m256i tlo[4];
  __m256i thi[4];
  for (int k = 0; k < 4; ++k) {
    tlo[k] = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(lo8[k])));
    thi[k] = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(hi8[k])));
  }
  const __m256i nib16 = _mm256_set1_epi16(0x000F);
  // Setting the top bit of each lane's high byte makes PSHUFB write zero there,
  // so lookups only land in the low byte of each 16-bit lane.
  const __m256i oddhi = _mm256_set1_epi16(static_cast<short>(0x8000));
  size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i acc = _mm256_setzero_si256();
    for (int k = 0; k < 4; ++k) {
      const __m256i idx = _mm256_or_si256(
          _mm256_and_si256(_mm256_srli_epi16(x, 4 * k), nib16), oddhi);
      const __m256i plo = _mm256_shuffle_epi8(tlo[k], idx);
      const __m256i phi = _mm256_slli_epi16(_mm256_shuffle_epi8(thi[k], idx), 8);
      acc = _mm256_xor_si256(acc, _mm256_or_si256(plo, phi));
    }
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, acc));
  }
  for (; i < len; ++i) {
    const uint16_t x = src[i];
    uint16_t p = 0;
    for (int k = 0; k < 4; ++k) {
      const int n = (x >> (4 * k)) & 0xF;
      p ^= static_cast<uint16_t>(lo8[k][n] | (hi8[k][n] << 8));
    }
    dst[i] ^= p;
  }
}

uint64_t Avx2XorAndFold(const uint64_t* a, const uint64_t* b, size_t words) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_xor_si256(acc, _mm256_and_si256(va, vb));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t r = lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3];
  for (; i < words; ++i) {
    r ^= a[i] & b[i];
  }
  return r;
}

// One min-sum check-node update (see the vtable contract in gf256_kernels.h).
// Pass 1 gathers v2c = posterior - msg and reduces min/sign; pass 2 emits the
// normalized messages and folds them back. All float operations are plain IEEE
// sub/mul/add in the scalar loop's per-edge order; sign flips and min selection
// are exact, so the result matches the scalar tier bit for bit.
uint64_t Avx2LdpcCheckNode(float* posterior, float* msgs, const uint32_t* vars,
                           uint32_t deg, float normalization) {
  alignas(32) float v2c[64];
  alignas(32) float mag[64];
  const __m256 zero = _mm256_setzero_ps();
  const __m256 absmask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  __m256 minv = _mm256_set1_ps(std::numeric_limits<float>::max());
  unsigned neg_count = 0;
  uint32_t j = 0;
  for (; j + 8 <= deg; j += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vars + j));
    const __m256 g = _mm256_i32gather_ps(posterior, idx, 4);
    const __m256 m = _mm256_loadu_ps(msgs + j);
    const __m256 v = _mm256_sub_ps(g, m);
    const __m256 a = _mm256_and_ps(v, absmask);
    _mm256_store_ps(v2c + j, v);
    _mm256_store_ps(mag + j, a);
    neg_count += static_cast<unsigned>(std::popcount(
        static_cast<unsigned>(_mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_LT_OQ)))));
    minv = _mm256_min_ps(minv, a);
  }
  alignas(32) float minlanes[8];
  _mm256_store_ps(minlanes, minv);
  float min1 = minlanes[0];
  for (int l = 1; l < 8; ++l) {
    min1 = minlanes[l] < min1 ? minlanes[l] : min1;
  }
  for (; j < deg; ++j) {
    const float v = posterior[vars[j]] - msgs[j];
    v2c[j] = v;
    const float a = std::fabs(v);
    mag[j] = a;
    if (v < 0.0f) {
      ++neg_count;
    }
    if (a < min1) {
      min1 = a;
    }
  }

  // First edge attaining min1 owns it (strict-< semantics of the scalar loop);
  // min2 is the minimum over the remaining edges, duplicates of min1 included.
  uint32_t min_index = 0;
  for (uint32_t e = 0; e < deg; ++e) {
    if (mag[e] == min1) {
      min_index = e;
      break;
    }
  }
  float min2 = std::numeric_limits<float>::max();
  for (uint32_t e = 0; e < deg; ++e) {
    if (e != min_index && mag[e] < min2) {
      min2 = mag[e];
    }
  }
  const int sign_product = (neg_count & 1) != 0 ? -1 : 1;

  // base = normalization * sign_product is exactly the scalar loop's
  // (kNormalization * sign) factor; the per-lane negation for v2c < 0 is an
  // exact sign-bit flip, so base*mag and -(base*mag) reproduce scalar products.
  const float base = normalization * static_cast<float>(sign_product);
  uint64_t bits = 0;
  const __m256 vbase = _mm256_set1_ps(base);
  const __m256 vmin1 = _mm256_set1_ps(min1);
  const __m256 vmin2 = _mm256_set1_ps(min2);
  const __m256i vminidx = _mm256_set1_epi32(static_cast<int>(min_index));
  const __m256i lane0 = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i signbit = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  alignas(32) float upd[8];
  j = 0;
  for (; j + 8 <= deg; j += 8) {
    const __m256 v = _mm256_load_ps(v2c + j);
    const __m256i lanes =
        _mm256_add_epi32(lane0, _mm256_set1_epi32(static_cast<int>(j)));
    const __m256 magsel = _mm256_blendv_ps(
        vmin1, vmin2,
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(lanes, vminidx)));
    __m256 nm = _mm256_mul_ps(vbase, magsel);
    const __m256 negmask = _mm256_cmp_ps(v, zero, _CMP_LT_OQ);
    nm = _mm256_castsi256_ps(
        _mm256_xor_si256(_mm256_castps_si256(nm),
                         _mm256_and_si256(_mm256_castps_si256(negmask), signbit)));
    const __m256 u = _mm256_add_ps(v, nm);
    _mm256_storeu_ps(msgs + j, nm);
    _mm256_store_ps(upd, u);
    const auto hard = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(u, zero, _CMP_LT_OQ)));
    bits |= static_cast<uint64_t>(hard) << j;
    for (int l = 0; l < 8; ++l) {
      posterior[vars[j + static_cast<uint32_t>(l)]] = upd[l];
    }
  }
  for (; j < deg; ++j) {
    const float v = v2c[j];
    const float m2 = (j == min_index) ? min2 : min1;
    float nm = base * m2;
    if (v < 0.0f) {
      nm = -nm;
    }
    const float u = v + nm;
    msgs[j] = nm;
    posterior[vars[j]] = u;
    if (u < 0.0f) {
      bits |= uint64_t{1} << j;
    }
  }
  return bits;
}

// --- Fused soft demap (SoftDecoder::DemapToLlrs) ----------------------------
//
// One voxel per lane, eight voxels per block, any constellation size. Every
// lane performs exactly the scalar loop's IEEE operations in its order (see
// ScalarSoftDemap in channel/soft_decoder.cc): double subtractions narrowed by
// cvtpd_ps, float mul/add/sub/div without FMA, and the scalar ternaries
// `a < b ? a : b` / `a > b ? a : b` as min/max(a, b), which evaluate the same
// way on NaN.

__m256 Combine(__m128 lo, __m128 hi) {
  return _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1);
}

// Narrows two 4-lane double vectors (voxels 0-3, 4-7) to one float vector.
__m256 Narrow(__m256d lo, __m256d hi) {
  return Combine(_mm256_cvtpd_ps(lo), _mm256_cvtpd_ps(hi));
}

[[gnu::always_inline]] inline __m256 DemapExp8(__m256 x) {
  const __m256 magic = _mm256_set1_ps(demap::kRoundMagic);
  x = _mm256_max_ps(x, _mm256_set1_ps(demap::kExpMinArg));
  const __m256 t =
      _mm256_add_ps(_mm256_mul_ps(x, _mm256_set1_ps(demap::kLog2e)), magic);
  const __m256 n = _mm256_sub_ps(t, magic);
  __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(demap::kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(demap::kLn2Lo)));
  __m256 p = _mm256_set1_ps(demap::kExpP[0]);
  for (int i = 1; i < 6; ++i) {
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(demap::kExpP[i]));
  }
  p = _mm256_mul_ps(p, _mm256_mul_ps(r, r));
  p = _mm256_add_ps(p, r);
  p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));
  const __m256i k = _mm256_sub_epi32(_mm256_castps_si256(t),
                                     _mm256_castps_si256(magic));
  const __m256i scale =
      _mm256_slli_epi32(_mm256_add_epi32(k, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(scale));
}

[[gnu::always_inline]] inline __m256 DemapLog8(__m256 y) {
  const __m256i bits = _mm256_castps_si256(y);
  __m256 e = _mm256_cvtepi32_ps(
      _mm256_sub_epi32(_mm256_srli_epi32(bits, 23), _mm256_set1_epi32(126)));
  const __m256 m = _mm256_castsi256_ps(
      _mm256_or_si256(_mm256_and_si256(bits, _mm256_set1_epi32(0x007FFFFF)),
                      _mm256_set1_epi32(0x3F000000)));
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 small = _mm256_cmp_ps(m, _mm256_set1_ps(demap::kSqrtHalf), _CMP_LT_OQ);
  e = _mm256_blendv_ps(e, _mm256_sub_ps(e, one), small);
  const __m256 x = _mm256_blendv_ps(_mm256_sub_ps(m, one),
                                    _mm256_sub_ps(_mm256_add_ps(m, m), one), small);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 q = _mm256_set1_ps(demap::kLogQ[0]);
  for (int i = 1; i < 9; ++i) {
    q = _mm256_add_ps(_mm256_mul_ps(q, x), _mm256_set1_ps(demap::kLogQ[i]));
  }
  q = _mm256_mul_ps(_mm256_mul_ps(q, x), z);
  q = _mm256_add_ps(q, _mm256_mul_ps(e, _mm256_set1_ps(demap::kLn2Lo)));
  q = _mm256_sub_ps(q, _mm256_mul_ps(z, _mm256_set1_ps(0.5f)));
  return _mm256_add_ps(_mm256_add_ps(x, q),
                       _mm256_mul_ps(e, _mm256_set1_ps(demap::kLn2Hi)));
}

// Mod-pi reduction of an out-of-range azimuth, exactly as the scalar loop does
// it (fmod is exact, so both produce the same double). A local copy: an inline
// function shared with the baseline-ISA scalar file could be linked there from
// this -mavx2 object.
double ReduceAzimuth(double a) {
  a = std::fmod(a, demap::kPi);
  if (a < 0.0) {
    a += demap::kPi;
  }
  return a;
}

// Reduces every lane outside [0, pi) (NaN included) of one 4-lane vector.
__m256d ReduceOutOfRange(__m256d a) {
  const __m256d in_range =
      _mm256_and_pd(_mm256_cmp_pd(a, _mm256_setzero_pd(), _CMP_GE_OQ),
                    _mm256_cmp_pd(a, _mm256_set1_pd(demap::kPi), _CMP_LT_OQ));
  if (_mm256_movemask_pd(in_range) == 0xF) {
    return a;
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, a);
  for (double& lane : lanes) {
    if (!(lane >= 0.0 && lane < demap::kPi)) {
      lane = ReduceAzimuth(lane);
    }
  }
  return _mm256_load_pd(lanes);
}

template <int kBits>
void Avx2SoftDemap(const SoftDemapTables& t, const double* observables,
                   size_t voxels, float* llrs) {
  constexpr int kAzimuthBits = demap::AzimuthBits(kBits);
  constexpr int kRetardanceLevels = 1 << (kBits - kAzimuthBits);
  constexpr int kAzimuthLevels = 1 << kAzimuthBits;
  constexpr int kSymbols = 1 << kBits;
  const __m256d pi = _mm256_set1_pd(demap::kPi);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256 inv_r = _mm256_set1_ps(t.inv_two_var_retardance);
  const __m256 inv_a = _mm256_set1_ps(t.inv_two_var_azimuth);
  const __m256 inv_temp = _mm256_set1_ps(t.inv_temperature);
  alignas(32) double tail[16] = {};
  alignas(32) float out[kBits][8];
  for (size_t v = 0; v < voxels; v += 8) {
    const size_t lanes = voxels - v < 8 ? voxels - v : 8;
    const double* block = observables + 2 * v;
    if (lanes < 8) {
      // A short final block runs on a zero-padded copy; lanes are independent,
      // so the padding never touches the stored results.
      std::fill(std::begin(tail), std::end(tail), 0.0);
      std::copy(block, block + 2 * lanes, tail);
      block = tail;
    }
    // Deinterleave (r0 a0 r1 a1 | r2 a2 r3 a3) into r0..r3 and a0..a3.
    const __m256d b0 = _mm256_loadu_pd(block);
    const __m256d b1 = _mm256_loadu_pd(block + 4);
    const __m256d b2 = _mm256_loadu_pd(block + 8);
    const __m256d b3 = _mm256_loadu_pd(block + 12);
    const __m256d r_lo = _mm256_permute4x64_pd(_mm256_unpacklo_pd(b0, b1), 0xD8);
    const __m256d r_hi = _mm256_permute4x64_pd(_mm256_unpacklo_pd(b2, b3), 0xD8);
    const __m256d a_lo =
        ReduceOutOfRange(_mm256_permute4x64_pd(_mm256_unpackhi_pd(b0, b1), 0xD8));
    const __m256d a_hi =
        ReduceOutOfRange(_mm256_permute4x64_pd(_mm256_unpackhi_pd(b2, b3), 0xD8));

    __m256 qr[kRetardanceLevels];
    __m256 qa[kAzimuthLevels];
    for (int e = 0; e < kRetardanceLevels; ++e) {
      const __m256d c = _mm256_set1_pd(t.retardance_centre[e]);
      const __m256 dr = Narrow(_mm256_sub_pd(r_lo, c), _mm256_sub_pd(r_hi, c));
      qr[e] = _mm256_mul_ps(_mm256_mul_ps(dr, dr), inv_r);
    }
    for (int a = 0; a < kAzimuthLevels; ++a) {
      const __m256d c = _mm256_set1_pd(t.azimuth_centre[a]);
      const __m256d d_lo = _mm256_andnot_pd(sign, _mm256_sub_pd(a_lo, c));
      const __m256d d_hi = _mm256_andnot_pd(sign, _mm256_sub_pd(a_hi, c));
      const __m256 da =
          Narrow(_mm256_min_pd(_mm256_sub_pd(pi, d_lo), d_lo),
                 _mm256_min_pd(_mm256_sub_pd(pi, d_hi), d_hi));
      qa[a] = _mm256_mul_ps(_mm256_mul_ps(da, da), inv_a);
    }
    const __m256 yf = Narrow(r_lo, r_hi);
    const __m256 miss_cost =
        _mm256_sub_ps(_mm256_mul_ps(_mm256_mul_ps(yf, yf), inv_r),
                      _mm256_set1_ps(t.log_miss_prior));
    __m256 cost[kSymbols];
    __m256 best = miss_cost;
    for (int s = 0; s < kSymbols; ++s) {
      cost[s] = _mm256_add_ps(qr[s >> kAzimuthBits], qa[s & (kAzimuthLevels - 1)]);
      best = _mm256_min_ps(cost[s], best);
    }
    // The exps are independent; the sums below then add them in the scalar
    // loop's order (ascending symbol, per accumulator).
    __m256 w[kSymbols];
    for (int s = 0; s < kSymbols; ++s) {
      w[s] = DemapExp8(_mm256_mul_ps(_mm256_sub_ps(best, cost[s]), inv_temp));
    }
    const __m256 w_miss =
        DemapExp8(_mm256_mul_ps(_mm256_sub_ps(best, miss_cost), inv_temp));
    __m256 total = _mm256_setzero_ps();
    for (int s = 0; s < kSymbols; ++s) {
      total = _mm256_add_ps(total, w[s]);
    }
    total = _mm256_add_ps(total, w_miss);
    __m256 p0[kBits];
    __m256 p1[kBits];
    for (int b = 0; b < kBits; ++b) {
      p0[b] = _mm256_setzero_ps();
      p1[b] = _mm256_setzero_ps();
      for (int s = 0; s < kSymbols; ++s) {
        if ((s >> b) & 1) {
          p1[b] = _mm256_add_ps(p1[b], w[s]);
        } else {
          p0[b] = _mm256_add_ps(p0[b], w[s]);
        }
      }
    }
    const __m256 half_miss = _mm256_mul_ps(w_miss, _mm256_set1_ps(0.5f));
    const __m256 floor =
        _mm256_mul_ps(_mm256_set1_ps(demap::kLlrEpsilon), total);
    for (int b = 0; b < kBits; ++b) {
      const __m256 num = _mm256_add_ps(_mm256_add_ps(p0[b], half_miss), floor);
      const __m256 den = _mm256_add_ps(_mm256_add_ps(p1[b], half_miss), floor);
      __m256 llr = DemapLog8(_mm256_div_ps(num, den));
      llr = _mm256_max_ps(llr, _mm256_set1_ps(-demap::kLlrClamp));
      llr = _mm256_min_ps(llr, _mm256_set1_ps(demap::kLlrClamp));
      _mm256_store_ps(out[b], llr);
    }
    for (size_t l = 0; l < lanes; ++l) {
      for (int b = 0; b < kBits; ++b) {
        llrs[(v + l) * kBits + static_cast<size_t>(b)] = out[b][l];
      }
    }
  }
}

void Avx2SoftDemap(const SoftDemapTables& t, const double* observables,
                   size_t voxels, float* llrs) {
  switch (t.bits_per_voxel) {
    case 1: return Avx2SoftDemap<1>(t, observables, voxels, llrs);
    case 2: return Avx2SoftDemap<2>(t, observables, voxels, llrs);
    case 3: return Avx2SoftDemap<3>(t, observables, voxels, llrs);
    case 4: return Avx2SoftDemap<4>(t, observables, voxels, llrs);
    case 5: return Avx2SoftDemap<5>(t, observables, voxels, llrs);
    case 6: return Avx2SoftDemap<6>(t, observables, voxels, llrs);
  }
}

// --- Box-Muller noise (the read channel's gaussian_fill) --------------------
//
// Four pairs per block, one per 64-bit lane, each performing exactly the IEEE
// double operations of GaussianFillReference in channel/channel_model.cc, in
// its order and without FMA. Integer-to-double conversions go through magic
// exponents, which is exact for every value that occurs (< 2^53).

// Exact conversion of lanes below 2^52.
__m256d SmallToDouble(__m256i v) {
  const __m256d magic = _mm256_set1_pd(0x1.0p52);
  return _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(v, _mm256_castpd_si256(magic))), magic);
}

// Exact conversion of lanes below 2^53: hi * 2^32 and lo convert separately
// through the 2^84 and 2^52 exponents, and their sum is representable.
__m256d U53ToDouble(__m256i v) {
  const __m256d magic_hi = _mm256_set1_pd(0x1.0p84);
  const __m256d magic_lo = _mm256_set1_pd(0x1.0p52);
  const __m256i hi =
      _mm256_or_si256(_mm256_srli_epi64(v, 32), _mm256_castpd_si256(magic_hi));
  const __m256i lo = _mm256_blend_epi32(v, _mm256_castpd_si256(magic_lo), 0xAA);
  const __m256d h = _mm256_sub_pd(_mm256_castsi256_pd(hi),
                                  _mm256_set1_pd(0x1.0p84 + 0x1.0p52));
  return _mm256_add_pd(h, _mm256_castsi256_pd(lo));
}

[[gnu::always_inline]] inline void GaussianBlock(__m256i u1_bits, __m256i u2_bits,
                                                 double* normals) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256i ione = _mm256_set1_epi64x(1);

  // r = sqrt(-2 log u1): split u1 into 2^e * m, then Cephes log(1 + x).
  const __m256d k = _mm256_max_pd(U53ToDouble(_mm256_srli_epi64(u1_bits, 11)), one);
  const __m256i bits =
      _mm256_castpd_si256(_mm256_mul_pd(k, _mm256_set1_pd(gaussian::kU53Scale)));
  __m256d e = _mm256_sub_pd(SmallToDouble(_mm256_srli_epi64(bits, 52)),
                            _mm256_set1_pd(1022.0));
  const __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(gaussian::kMantissaMask)),
      _mm256_set1_epi64x(gaussian::kHalfExponent)));
  const __m256d small =
      _mm256_cmp_pd(m, _mm256_set1_pd(gaussian::kSqrtHalf), _CMP_LT_OQ);
  e = _mm256_blendv_pd(e, _mm256_sub_pd(e, one), small);
  const __m256d x = _mm256_blendv_pd(_mm256_sub_pd(m, one),
                                     _mm256_sub_pd(_mm256_add_pd(m, m), one), small);
  const __m256d z = _mm256_mul_pd(x, x);
  __m256d p = _mm256_set1_pd(gaussian::kLogP[0]);
  for (int i = 1; i < 6; ++i) {
    p = _mm256_add_pd(_mm256_mul_pd(p, x), _mm256_set1_pd(gaussian::kLogP[i]));
  }
  __m256d q = _mm256_add_pd(x, _mm256_set1_pd(gaussian::kLogQ[0]));
  for (int i = 1; i < 5; ++i) {
    q = _mm256_add_pd(_mm256_mul_pd(q, x), _mm256_set1_pd(gaussian::kLogQ[i]));
  }
  __m256d y = _mm256_mul_pd(x, _mm256_div_pd(_mm256_mul_pd(z, p), q));
  y = _mm256_add_pd(y, _mm256_mul_pd(e, _mm256_set1_pd(gaussian::kLn2Lo)));
  y = _mm256_sub_pd(y, _mm256_mul_pd(_mm256_set1_pd(0.5), z));
  const __m256d log_u1 = _mm256_add_pd(
      _mm256_add_pd(x, y), _mm256_mul_pd(e, _mm256_set1_pd(gaussian::kLn2Hi)));
  const __m256d r =
      _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), log_u1));

  // theta = (octant + f) * pi/4: the polynomials at f * pi/4, reflected on odd
  // octants, then swapped and negated by octant.
  const __m256i octant = _mm256_srli_epi64(u2_bits, 61);
  const __m256d f = _mm256_mul_pd(
      SmallToDouble(_mm256_and_si256(_mm256_srli_epi64(u2_bits, 11),
                                     _mm256_set1_epi64x(gaussian::kFractionMask))),
      _mm256_set1_pd(gaussian::kFractionScale));
  const __m256d odd = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(octant, ione), ione));
  const __m256d a = _mm256_blendv_pd(f, _mm256_sub_pd(one, f), odd);
  const __m256d xa = _mm256_mul_pd(a, _mm256_set1_pd(gaussian::kPiOver4));
  const __m256d zz = _mm256_mul_pd(xa, xa);
  __m256d ps = _mm256_set1_pd(gaussian::kSin[0]);
  __m256d pc = _mm256_set1_pd(gaussian::kCos[0]);
  for (int i = 1; i < 6; ++i) {
    ps = _mm256_add_pd(_mm256_mul_pd(ps, zz), _mm256_set1_pd(gaussian::kSin[i]));
    pc = _mm256_add_pd(_mm256_mul_pd(pc, zz), _mm256_set1_pd(gaussian::kCos[i]));
  }
  const __m256d s = _mm256_add_pd(xa, _mm256_mul_pd(xa, _mm256_mul_pd(zz, ps)));
  const __m256d c = _mm256_add_pd(
      _mm256_sub_pd(one, _mm256_mul_pd(_mm256_set1_pd(0.5), zz)),
      _mm256_mul_pd(_mm256_mul_pd(zz, zz), pc));
  const __m256d swap = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
      _mm256_and_si256(_mm256_xor_si256(octant, _mm256_srli_epi64(octant, 1)), ione),
      ione));
  // Octant bit 2 negates the sine; octants 2-5 negate the cosine. Bit 2 of the
  // octant shifted left by 61 lands on the sign bit.
  const __m256d sin_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(octant, _mm256_set1_epi64x(4)), 61));
  const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(octant, _mm256_set1_epi64x(2)),
                       _mm256_set1_epi64x(4)),
      61));
  const __m256d sin_v = _mm256_xor_pd(_mm256_blendv_pd(s, c, swap), sin_sign);
  const __m256d cos_v = _mm256_xor_pd(_mm256_blendv_pd(c, s, swap), cos_sign);
  const __m256d rc = _mm256_mul_pd(r, cos_v);
  const __m256d rs = _mm256_mul_pd(r, sin_v);
  // (rc0 rs0 rc2 rs2), (rc1 rs1 rc3 rs3) -> pairs 0-1 and 2-3 in order.
  const __m256d lo = _mm256_unpacklo_pd(rc, rs);
  const __m256d hi = _mm256_unpackhi_pd(rc, rs);
  _mm256_storeu_pd(normals, _mm256_permute2f128_pd(lo, hi, 0x20));
  _mm256_storeu_pd(normals + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
}

void Avx2GaussianFill(const uint64_t* draws, size_t stride, size_t n,
                      double* normals) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint64_t* d = draws + i * stride;
    const auto at = [&](size_t k) { return static_cast<long long>(d[k]); };
    GaussianBlock(
        _mm256_setr_epi64x(at(0), at(stride), at(2 * stride), at(3 * stride)),
        _mm256_setr_epi64x(at(1), at(stride + 1), at(2 * stride + 1),
                           at(3 * stride + 1)),
        normals + 2 * i);
  }
  if (i < n) {
    // A short final block runs on zero-padded draws; lanes are independent.
    alignas(32) uint64_t u1[4] = {};
    alignas(32) uint64_t u2[4] = {};
    alignas(32) double out[8];
    for (size_t l = 0; i + l < n; ++l) {
      u1[l] = draws[(i + l) * stride];
      u2[l] = draws[(i + l) * stride + 1];
    }
    GaussianBlock(_mm256_load_si256(reinterpret_cast<const __m256i*>(u1)),
                  _mm256_load_si256(reinterpret_cast<const __m256i*>(u2)), out);
    std::copy(out, out + 2 * (n - i), normals + 2 * i);
  }
}

}  // namespace

const Gf256Kernels* Avx2Kernels() {
  if (!__builtin_cpu_supports("avx2")) {
    return nullptr;
  }
  static const Gf256Kernels k = {
      .tier = SimdMode::kAvx2,
      .name = "avx2",
      .mul_accumulate = &Avx2MulAccumulate,
      .scale_in_place = &Avx2ScaleInPlace,
      .mul_accumulate16 = &Avx2MulAccumulate16,
      .xor_and_fold = &Avx2XorAndFold,
      .ldpc_check_node = &Avx2LdpcCheckNode,
      .soft_demap = &Avx2SoftDemap,
      .gaussian_fill = &Avx2GaussianFill,
  };
  return &k;
}

}  // namespace silica

#else  // !x86-64 or SIMD disabled at build time

namespace silica {
const Gf256Kernels* Avx2Kernels() { return nullptr; }
}  // namespace silica

#endif
