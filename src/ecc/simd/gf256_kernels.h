// Runtime-dispatched SIMD kernels for the data-plane field arithmetic.
//
// Every encode and recovery in the Silica data plane bottoms out in a handful of
// tight loops: GF(256) multiply-accumulate over sector-sized shards (network
// coding, Cauchy matrix elimination), GF(2^16) multiply-accumulate (large-group
// codec), the packed-64-bit parity fold of the systematic LDPC encoder, the
// per-check min-sum update of the LDPC decoder, the soft demap of a sector
// image to bit LLRs, and the read channel's Box-Muller noise. This header
// defines a vtable of those loops (`Gf256Kernels`) with one implementation per
// dispatch tier:
//
//   * scalar — the portable reference, byte-for-byte the pre-SIMD code paths;
//   * avx2   — x86-64 shuffled-nibble-lookup kernels (PSHUFB over per-coefficient
//              16-entry nibble product tables; SSSE3 technique, AVX2 width);
//   * neon   — AArch64 vtbl equivalent of the shuffled-nibble kernels.
//
// The tier is selected once at startup from CPUID (auto) or forced via
// `--simd={auto,scalar,avx2,neon}` (threaded through ServiceConfig, silica_sim,
// and the benches). The contract, enforced by tests/gf256_kernels_test.cc, is
// that every tier is bit-identical to the scalar reference: GF arithmetic is
// exact, and the floating-point min-sum, demap and Gaussian kernels perform the
// same IEEE operations in the same order, so vectorization never changes a
// single output byte.
//
// Optional entries (`mul_accumulate16`, `xor_and_fold`, `ldpc_check_node`,
// `soft_demap`, `gaussian_fill`) may be null; callers fall back to their inline
// scalar loop, which is the same code every tier falls back to, preserving
// cross-tier identity.
#ifndef SILICA_ECC_SIMD_GF256_KERNELS_H_
#define SILICA_ECC_SIMD_GF256_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace silica {

// Soft-demap parameters, precomputed once by SoftDecoder's constructor. The
// constellation is separable — symbol = (e << demap::AzimuthBits(bits)) | a —
// so a voxel's squared distance to every symbol is the sum of one
// retardance-axis and one azimuth-axis term. Centres stay double so each axis
// distance is one correctly rounded double subtraction before the narrowing to
// float; everything after that is float.
struct SoftDemapTables {
  int bits_per_voxel = 0;  // 1..6; LLRs written per voxel
  double retardance_centre[8] = {};  // per energy level e
  double azimuth_centre[8] = {};     // per azimuth angle a
  float inv_two_var_retardance = 0.0f;  // 1 / (2 sigma_r^2)
  float inv_two_var_azimuth = 0.0f;     // 1 / (2 sigma_a^2)
  float log_miss_prior = 0.0f;          // log(miss_prior) < 0
  float inv_temperature = 0.0f;
};

// Shared constants of the soft demapper's float exp/log. Every tier evaluates
// the same polynomials with the same IEEE operations in the same order (no
// FMA), so the constants must come from one place.
namespace demap {
// Constellation's split of a symbol's bits: the azimuth axis takes the extra
// bit when bits_per_voxel is odd.
constexpr int AzimuthBits(int bits_per_voxel) { return (bits_per_voxel + 1) / 2; }

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr float kLlrClamp = 30.0f;
inline constexpr float kLlrEpsilon = 1e-12f;  // regularizer of the bit ratio
inline constexpr float kExpMinArg = -87.0f;   // exp stays a normal float
inline constexpr float kRoundMagic = 12582912.0f;  // 1.5 * 2^23
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kLn2Hi = 0.693359375f;  // 9 significant bits: n * kLn2Hi exact
inline constexpr float kLn2Lo = -2.12194440e-4f;
// exp(r) on |r| <= ln2/2: 1 + r + r^2 * P(r) (Cephes expf).
inline constexpr float kExpP[6] = {1.9875691500e-4f, 1.3981999507e-3f,
                                   8.3334519073e-3f, 4.1665795894e-2f,
                                   1.6666665459e-1f, 5.0000001201e-1f};
inline constexpr float kSqrtHalf = 0.707106781186547524f;
// log(1 + x) on sqrt(1/2) - 1 <= x < sqrt(2) - 1: x - x^2/2 + x^3 * Q(x)
// (Cephes logf).
inline constexpr float kLogQ[9] = {7.0376836292e-2f,  -1.1514610310e-1f,
                                   1.1676998740e-1f,  -1.2420140846e-1f,
                                   1.4249322787e-1f,  -1.6668057665e-1f,
                                   2.0000714765e-1f,  -2.4999993993e-1f,
                                   3.3333331174e-1f};
}  // namespace demap

// Shared constants of the read channel's Box-Muller kernel (the `gaussian_fill`
// slot; the scalar reference is GaussianFillReference in
// channel/channel_model.cc). Every tier evaluates the same double polynomials
// with the same IEEE operations in the same order (no FMA).
namespace gaussian {
inline constexpr double kU53Scale = 0x1.0p-53;  // u1 = max(bits >> 11, 1) * 2^-53
inline constexpr uint64_t kFractionMask = (uint64_t{1} << 50) - 1;
inline constexpr double kFractionScale = 0x1.0p-50;
inline constexpr uint64_t kMantissaMask = (uint64_t{1} << 52) - 1;
inline constexpr uint64_t kHalfExponent = 0x3FE0000000000000ull;  // [0.5, 1)
inline constexpr double kSqrtHalf = 0.70710678118654752440;
inline constexpr double kLn2Hi = 0.693359375;  // e * kLn2Hi is exact
inline constexpr double kLn2Lo = -2.121944400546905827679e-4;
// log(1 + x) on sqrt(1/2) - 1 <= x < sqrt(2) - 1:
// x - x^2/2 + x^3 * P(x) / Q(x), Q monic (Cephes log).
inline constexpr double kLogP[6] = {
    1.01875663804580931796e-4, 4.97494994976747001425e-1,
    4.70579119878881725854e0,  1.44989225341610930846e1,
    1.79368678507819816313e1,  7.70838733755885391666e0};
inline constexpr double kLogQ[5] = {
    1.12873587189167450590e1, 4.52279145837532221105e1,
    8.29875266912776603211e1, 7.11544750618563894466e1,
    2.31251620126765340583e1};
inline constexpr double kPiOver4 = 0.78539816339744830962;
// sin x = x + x * z * S(z) and cos x = 1 - z/2 + z^2 * C(z), z = x^2, on
// |x| <= pi/4 (Cephes sin/cos).
inline constexpr double kSin[6] = {
    1.58962301576546568060e-10, -2.50507477628578072866e-8,
    2.75573136213857245213e-6,  -1.98412698295895385996e-4,
    8.33333333332211858878e-3,  -1.66666666666666307295e-1};
inline constexpr double kCos[6] = {
    -1.13585365213876817300e-11, 2.08757008419747316778e-9,
    -2.75573141792967388112e-7,  2.48015872888517045348e-5,
    -1.38888888888730564116e-3,  4.16666666666665929218e-2};
}  // namespace gaussian

enum class SimdMode {
  kAuto = 0,    // pick the best tier the CPU supports (default)
  kScalar = 1,  // portable reference loops
  kAvx2 = 2,    // x86-64 AVX2 shuffled-nibble kernels
  kNeon = 3,    // AArch64 NEON vtbl kernels
};

struct Gf256Kernels {
  // Dispatch-tier identity (kScalar/kAvx2/kNeon; never kAuto).
  SimdMode tier;
  const char* name;

  // dst[i] ^= coeff * src[i] over GF(256). coeff == 0 is handled by the caller
  // (no-op); coeff == 1 must be supported (plain XOR).
  void (*mul_accumulate)(uint8_t* dst, const uint8_t* src, size_t len,
                         uint8_t coeff);

  // data[i] = coeff * data[i] over GF(256). coeff == 1 handled by the caller.
  void (*scale_in_place)(uint8_t* data, size_t len, uint8_t coeff);

  // dst[i] ^= coeff * src[i] over GF(2^16) words, or null (caller's scalar
  // loop). coeff == 0/1 are handled by the caller.
  void (*mul_accumulate16)(uint16_t* dst, const uint16_t* src, size_t len,
                           uint16_t coeff);

  // XOR-fold of (a[w] & b[w]) over `words` 64-bit words — the inner product of
  // the packed LDPC parity map with a packed info block — or null. XOR is
  // commutative and associative, so any evaluation order is bit-identical.
  uint64_t (*xor_and_fold)(const uint64_t* a, const uint64_t* b, size_t words);

  // One LDPC min-sum check-node update over the CSR edge slice [0, deg):
  //   v2c[j]   = posterior[vars[j]] - msgs[j]
  //   min1/min2/first-min-index/sign-product over |v2c| (strict < semantics,
  //   first edge attaining the minimum owns min1, exactly like the scalar loop)
  //   msgs[j]  = (normalization * sign_j) * mag_j      (same float evaluation
  //   posterior[vars[j]] = v2c[j] + msgs[j]             order as the scalar code)
  // Returns the updated hard decisions: bit j = (posterior[vars[j]] < 0).
  // Preconditions: deg <= 64 and vars[0..deg) are distinct (both guaranteed by
  // the CSR construction; the decoder falls back inline otherwise). Null for
  // tiers without a vectorized min-sum. The decoder additionally gates calls on
  // a minimum degree: below a few full vector blocks the kernel's fixed costs
  // exceed the inline loop, so low-degree checks stay scalar per-op.
  uint64_t (*ldpc_check_node)(float* posterior, float* msgs,
                              const uint32_t* vars, uint32_t deg,
                              float normalization);

  // Fused soft demap of `voxels` measurements straight to bit LLRs:
  // observables holds interleaved (retardance, azimuth) doubles, one pair per
  // voxel; llrs receives bits_per_voxel floats per voxel (voxel-major,
  // LSB-first, positive = "bit is 0"). Must reproduce SoftDecoder's scalar
  // demap loop bit for bit, for any voxel count and any finite or non-finite
  // input. Null for tiers without a vectorized demapper.
  void (*soft_demap)(const SoftDemapTables& tables, const double* observables,
                     size_t voxels, float* llrs);

  // Box-Muller over raw Rng draws: pair i takes u1 = draws[i * stride] and
  // u2 = draws[i * stride + 1] and writes normals[2i] = r cos(theta),
  // normals[2i + 1] = r sin(theta), with r = sqrt(-2 log(max(u1 >> 11, 1) *
  // 2^-53)) and theta = 2 pi (u2 >> 11) * 2^-53. Must reproduce
  // GaussianFillReference (channel/channel_model.cc) bit for bit for any draws
  // and any count. Null for tiers without a vectorized Box-Muller.
  void (*gaussian_fill)(const uint64_t* draws, size_t stride, size_t n,
                        double* normals);
};

// The portable reference tier (always available).
const Gf256Kernels& ScalarKernels();

// Tier constructors: null when the build disabled SIMD, the architecture does
// not match, or the CPU lacks the required features (checked at runtime).
const Gf256Kernels* Avx2Kernels();
const Gf256Kernels* NeonKernels();

// The kernels selected by the current mode. Defaults to the best tier the CPU
// supports; stable for the life of the process unless SetSimdMode intervenes.
const Gf256Kernels& ActiveKernels();

// Forces a dispatch tier. Returns false (and changes nothing) if the tier is
// unavailable on this CPU/build. kAuto re-runs detection. Call once at startup
// (or between single-threaded test phases): switching while data-plane threads
// are mid-kernel is not synchronized.
bool SetSimdMode(SimdMode mode);

// The tier currently in effect (kScalar/kAvx2/kNeon; never kAuto).
SimdMode ActiveSimdMode();

// "auto" / "scalar" / "avx2" / "neon" <-> SimdMode.
std::optional<SimdMode> ParseSimdMode(std::string_view name);
const char* SimdModeName(SimdMode mode);
// Every name ParseSimdMode accepts, "auto" first.
std::vector<std::string> SimdModeNames();
// SetSimdMode by name, for command lines and configs. Throws
// std::invalid_argument when `name` is not a tier or the tier is not
// available on this machine.
void SetSimdModeByName(std::string_view name);

// Every tier that SetSimdMode would accept on this machine, scalar first.
// The differential suites iterate this to pin each tier to the reference.
std::vector<SimdMode> AvailableSimdModes();

}  // namespace silica

#endif  // SILICA_ECC_SIMD_GF256_KERNELS_H_
