// Scalar reference tier: the pre-SIMD loops, verbatim. Every other tier is
// pinned bit-identical to these functions by tests/gf256_kernels_test.cc, so do
// not "optimize" them — they are the specification.
#include "ecc/simd/gf256_kernels.h"

#include <array>

namespace silica {
namespace {

// Log/exp tables over x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the same construction
// as Gf256::Mul. Rebuilt here so the kernel layer has no link-order dependency
// on gf256.cc's internal statics.
struct Tables {
  std::array<uint8_t, 512> exp;
  std::array<uint8_t, 256> log;

  Tables() {
    uint16_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[static_cast<size_t>(i)] = static_cast<uint8_t>(x);
      log[static_cast<size_t>(x)] = static_cast<uint8_t>(i);
      x <<= 1;
      if (x & 0x100) {
        x ^= 0x11D;
      }
    }
    for (int i = 255; i < 512; ++i) {
      exp[static_cast<size_t>(i)] = exp[static_cast<size_t>(i - 255)];
    }
    log[0] = 0;  // never used; callers guard zero operands
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

void ScalarMulAccumulate(uint8_t* dst, const uint8_t* src, size_t len,
                         uint8_t coeff) {
  if (coeff == 1) {
    for (size_t i = 0; i < len; ++i) {
      dst[i] ^= src[i];
    }
    return;
  }
  const auto& t = tables();
  const unsigned log_c = t.log[coeff];
  for (size_t i = 0; i < len; ++i) {
    const uint8_t s = src[i];
    if (s != 0) {
      dst[i] ^= t.exp[static_cast<size_t>(t.log[s]) + log_c];
    }
  }
}

void ScalarScaleInPlace(uint8_t* data, size_t len, uint8_t coeff) {
  const auto& t = tables();
  if (coeff == 0) {
    for (size_t i = 0; i < len; ++i) {
      data[i] = 0;
    }
    return;
  }
  const unsigned log_c = t.log[coeff];
  for (size_t i = 0; i < len; ++i) {
    const uint8_t s = data[i];
    data[i] = s == 0 ? 0
                     : t.exp[static_cast<size_t>(t.log[s]) + log_c];
  }
}

}  // namespace

const Gf256Kernels& ScalarKernels() {
  // Optional entries stay null: callers run their inline scalar loops, which
  // are the seed code paths and therefore byte-identical by construction.
  static const Gf256Kernels k = {
      .tier = SimdMode::kScalar,
      .name = "scalar",
      .mul_accumulate = &ScalarMulAccumulate,
      .scale_in_place = &ScalarScaleInPlace,
      .mul_accumulate16 = nullptr,
      .xor_and_fold = nullptr,
      .ldpc_check_node = nullptr,
      .soft_demap = nullptr,
      .gaussian_fill = nullptr,
  };
  return k;
}

}  // namespace silica
