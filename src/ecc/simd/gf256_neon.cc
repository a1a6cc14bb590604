// AArch64 NEON tier: the shuffled-nibble GF(256) kernels via vqtbl1q_u8 (the
// NEON equivalent of PSHUFB; 16 parallel table lookups per instruction).
//
// Only the two mandatory GF(256) entries are vectorized here. The optional
// entries (GF(2^16), xor_and_fold, the min-sum check node) stay null, so
// callers take the same inline scalar fallback on every tier — keeping the
// untested-on-this-hardware surface small without breaking cross-tier identity.
#include "ecc/simd/gf256_kernels.h"

#if defined(__aarch64__) && !defined(SILICA_DISABLE_SIMD)

#include <arm_neon.h>

namespace silica {
namespace {

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
  static const NibbleTables t;
  return t;
}

void NeonMulAccumulate(uint8_t* dst, const uint8_t* src, size_t len,
                       uint8_t coeff) {
  size_t i = 0;
  if (coeff == 1) {
    for (; i + 16 <= len; i += 16) {
      vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), vld1q_u8(src + i)));
    }
    for (; i < len; ++i) {
      dst[i] ^= src[i];
    }
    return;
  }
  const NibbleTables& t = tables();
  const uint8x16_t tlo = vld1q_u8(t.lo[coeff]);
  const uint8x16_t thi = vld1q_u8(t.hi[coeff]);
  const uint8x16_t nib = vdupq_n_u8(0x0F);
  for (; i + 16 <= len; i += 16) {
    const uint8x16_t s = vld1q_u8(src + i);
    const uint8x16_t plo = vqtbl1q_u8(tlo, vandq_u8(s, nib));
    const uint8x16_t phi = vqtbl1q_u8(thi, vshrq_n_u8(s, 4));
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), veorq_u8(plo, phi)));
  }
  for (; i < len; ++i) {
    const uint8_t s = src[i];
    dst[i] ^= static_cast<uint8_t>(t.lo[coeff][s & 0x0F] ^ t.hi[coeff][s >> 4]);
  }
}

void NeonScaleInPlace(uint8_t* data, size_t len, uint8_t coeff) {
  const NibbleTables& t = tables();
  const uint8x16_t tlo = vld1q_u8(t.lo[coeff]);
  const uint8x16_t thi = vld1q_u8(t.hi[coeff]);
  const uint8x16_t nib = vdupq_n_u8(0x0F);
  size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const uint8x16_t s = vld1q_u8(data + i);
    const uint8x16_t plo = vqtbl1q_u8(tlo, vandq_u8(s, nib));
    const uint8x16_t phi = vqtbl1q_u8(thi, vshrq_n_u8(s, 4));
    vst1q_u8(data + i, veorq_u8(plo, phi));
  }
  for (; i < len; ++i) {
    const uint8_t s = data[i];
    data[i] = static_cast<uint8_t>(t.lo[coeff][s & 0x0F] ^ t.hi[coeff][s >> 4]);
  }
}

}  // namespace

const Gf256Kernels* NeonKernels() {
  // AArch64 mandates NEON; no runtime feature probe needed.
  static const Gf256Kernels k = {
      .tier = SimdMode::kNeon,
      .name = "neon",
      .mul_accumulate = &NeonMulAccumulate,
      .scale_in_place = &NeonScaleInPlace,
      .mul_accumulate16 = nullptr,
      .xor_and_fold = nullptr,
      .ldpc_check_node = nullptr,
      .soft_demap = nullptr,
      .gaussian_fill = nullptr,
  };
  return &k;
}

}  // namespace silica

#else  // !AArch64 or SIMD disabled at build time

namespace silica {
const Gf256Kernels* NeonKernels() { return nullptr; }
}  // namespace silica

#endif
