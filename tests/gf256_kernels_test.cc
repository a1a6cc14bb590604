// Differential and property tests for the SIMD kernel dispatch layer
// (src/ecc/simd/). The contract under test: every dispatch tier available on
// this machine is bit-identical to the scalar reference for every data-plane
// kernel — GF(256)/GF(2^16) multiply-accumulate, the packed parity fold, dense
// matrix products, the LDPC min-sum decoder (hard decisions AND iteration
// counts), and the fused soft demapper (every LLR bit). SIMD remainder paths
// are a classic source of wrong-answer bugs, so the suites sweep lengths
// through 0..3x the widest vector width and run on deliberately misaligned
// pointers.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "channel/channel_model.h"
#include "channel/constellation.h"
#include "channel/soft_decoder.h"
#include "common/rng.h"
#include "ecc/gf256.h"
#include "ecc/gf65536.h"
#include "ecc/ldpc.h"
#include "ecc/network_coding.h"
#include "ecc/simd/gf256_kernels.h"

namespace silica {
namespace {

// Widest vector width across tiers (AVX2: 32 bytes); length sweeps go to 3x
// this plus a margin so every head/body/tail combination is exercised.
constexpr size_t kMaxVectorWidth = 32;
constexpr size_t kMaxSweepLen = 3 * kMaxVectorWidth + 3;

// Restores the auto-detected tier when a test finishes, so test order can
// never leak a forced tier into an unrelated suite.
class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(SimdMode mode) { EXPECT_TRUE(SetSimdMode(mode)); }
  ~ScopedSimdMode() { SetSimdMode(SimdMode::kAuto); }
};

std::vector<SimdMode> Tiers() { return AvailableSimdModes(); }

// Independent oracle: Gf256::Mul byte-at-a-time (log/exp lookups, not routed
// through the kernel vtable).
void OracleMulAccumulate(std::span<uint8_t> dst, std::span<const uint8_t> src,
                         uint8_t coeff) {
  for (size_t i = 0; i < dst.size(); ++i) {
    dst[i] ^= Gf256::Mul(src[i], coeff);
  }
}

void OracleScaleInPlace(std::span<uint8_t> data, uint8_t coeff) {
  for (auto& b : data) {
    b = Gf256::Mul(b, coeff);
  }
}

// --- Exhaustive coefficient x byte-value coverage --------------------------

TEST(Gf256Kernels, MulAccumulateExhaustiveCoeffTimesAllByteValues) {
  // One buffer holding all 256 byte values; every coefficient against it.
  std::vector<uint8_t> all_bytes(256);
  for (size_t i = 0; i < 256; ++i) {
    all_bytes[i] = static_cast<uint8_t>(i);
  }
  for (const SimdMode tier : Tiers()) {
    ScopedSimdMode guard(tier);
    for (int coeff = 0; coeff < 256; ++coeff) {
      std::vector<uint8_t> dst(256);
      for (size_t i = 0; i < 256; ++i) {
        dst[i] = static_cast<uint8_t>(151 * i + 7);  // nonzero varied contents
      }
      std::vector<uint8_t> expected = dst;
      OracleMulAccumulate(expected, all_bytes, static_cast<uint8_t>(coeff));
      Gf256::MulAccumulate(dst, all_bytes, static_cast<uint8_t>(coeff));
      ASSERT_EQ(dst, expected)
          << "tier " << SimdModeName(tier) << " coeff " << coeff;
    }
  }
}

TEST(Gf256Kernels, ScaleInPlaceExhaustiveCoeffTimesAllByteValues) {
  for (const SimdMode tier : Tiers()) {
    ScopedSimdMode guard(tier);
    for (int coeff = 0; coeff < 256; ++coeff) {
      std::vector<uint8_t> data(256);
      for (size_t i = 0; i < 256; ++i) {
        data[i] = static_cast<uint8_t>(i);
      }
      std::vector<uint8_t> expected = data;
      OracleScaleInPlace(expected, static_cast<uint8_t>(coeff));
      Gf256::ScaleInPlace(data, static_cast<uint8_t>(coeff));
      ASSERT_EQ(data, expected)
          << "tier " << SimdModeName(tier) << " coeff " << coeff;
    }
  }
}

// --- Random buffers, unaligned pointers, remainder lengths -----------------

TEST(Gf256Kernels, MulAccumulateRandomBuffersUnalignedAllLengths) {
  for (const SimdMode tier : Tiers()) {
    ScopedSimdMode guard(tier);
    for (uint64_t seed = 1; seed <= 50; ++seed) {
      Rng rng(seed);
      // Length sweep covers empty, sub-vector, exact-multiple, and tail cases;
      // offsets 0..3 force misaligned loads/stores on both pointers.
      const size_t len = seed % (kMaxSweepLen + 1);
      const size_t dst_off = seed % 4;
      const size_t src_off = (seed / 4) % 4;
      const auto coeff = static_cast<uint8_t>(rng.UniformInt(0, 255));
      std::vector<uint8_t> dst_buf(len + 8);
      std::vector<uint8_t> src_buf(len + 8);
      for (auto& b : dst_buf) {
        b = static_cast<uint8_t>(rng.NextU64());
      }
      for (auto& b : src_buf) {
        b = static_cast<uint8_t>(rng.NextU64());
      }
      std::span<uint8_t> dst(dst_buf.data() + dst_off, len);
      std::span<const uint8_t> src(src_buf.data() + src_off, len);
      std::vector<uint8_t> expected(dst.begin(), dst.end());
      OracleMulAccumulate(expected, src, coeff);
      const std::vector<uint8_t> dst_before = dst_buf;
      Gf256::MulAccumulate(dst, src, coeff);
      ASSERT_TRUE(std::equal(dst.begin(), dst.end(), expected.begin()))
          << "tier " << SimdModeName(tier) << " seed " << seed << " len " << len;
      // Out-of-span guard bytes must be untouched (over-wide vector stores).
      for (size_t i = 0; i < dst_buf.size(); ++i) {
        const bool inside = i >= dst_off && i < dst_off + len;
        if (!inside) {
          ASSERT_EQ(dst_buf[i], dst_before[i])
              << "tier " << SimdModeName(tier) << " seed " << seed
              << " clobbered guard byte " << i;
        }
      }
    }
  }
}

TEST(Gf256Kernels, ScaleInPlaceRandomBuffersUnalignedAllLengths) {
  for (const SimdMode tier : Tiers()) {
    ScopedSimdMode guard(tier);
    for (uint64_t seed = 1; seed <= 50; ++seed) {
      Rng rng(seed + 1000);
      const size_t len = seed % (kMaxSweepLen + 1);
      const size_t off = seed % 4;
      const auto coeff = static_cast<uint8_t>(rng.UniformInt(0, 255));
      std::vector<uint8_t> buf(len + 8);
      for (auto& b : buf) {
        b = static_cast<uint8_t>(rng.NextU64());
      }
      std::span<uint8_t> data(buf.data() + off, len);
      std::vector<uint8_t> expected(data.begin(), data.end());
      OracleScaleInPlace(expected, coeff);
      Gf256::ScaleInPlace(data, coeff);
      ASSERT_TRUE(std::equal(data.begin(), data.end(), expected.begin()))
          << "tier " << SimdModeName(tier) << " seed " << seed << " len " << len;
    }
  }
}

// --- Matrix products -------------------------------------------------------

TEST(Gf256Kernels, MatrixMultiplyIdenticalAcrossTiers) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const size_t rows = 1 + seed % 9;
    const size_t inner = 1 + (seed * 3) % 11;
    const size_t cols = 1 + (seed * 7) % 37;  // sub-vector and multi-vector rows
    Gf256Matrix a(rows, inner);
    Gf256Matrix b(inner, cols);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < inner; ++c) {
        a.At(r, c) = static_cast<uint8_t>(rng.UniformInt(0, 255));
      }
    }
    for (size_t r = 0; r < inner; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        b.At(r, c) = static_cast<uint8_t>(rng.UniformInt(0, 255));
      }
    }
    ScopedSimdMode scalar_guard(SimdMode::kScalar);
    const Gf256Matrix reference = a.Multiply(b);
    for (const SimdMode tier : Tiers()) {
      ASSERT_TRUE(SetSimdMode(tier));
      const Gf256Matrix product = a.Multiply(b);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < cols; ++c) {
          ASSERT_EQ(product.At(r, c), reference.At(r, c))
              << "tier " << SimdModeName(tier) << " seed " << seed;
        }
      }
    }
  }
}

// --- GF(2^16) --------------------------------------------------------------

TEST(Gf256Kernels, Gf65536MulAccumulateMatchesOracle) {
  for (const SimdMode tier : Tiers()) {
    ScopedSimdMode guard(tier);
    for (uint64_t seed = 1; seed <= 50; ++seed) {
      Rng rng(seed + 2000);
      const size_t len = seed % 49;  // 0..3x the 16-word AVX2 width
      const auto coeff = static_cast<uint16_t>(rng.UniformInt(0, 65535));
      std::vector<uint16_t> dst(len);
      std::vector<uint16_t> src(len);
      for (auto& w : dst) {
        w = static_cast<uint16_t>(rng.NextU64());
      }
      for (auto& w : src) {
        w = static_cast<uint16_t>(rng.NextU64());
      }
      std::vector<uint16_t> expected = dst;
      for (size_t i = 0; i < len; ++i) {
        expected[i] ^= Gf65536::Mul(src[i], coeff);
      }
      Gf65536::MulAccumulate(dst, src, coeff);
      ASSERT_EQ(dst, expected)
          << "tier " << SimdModeName(tier) << " seed " << seed;
    }
  }
}

TEST(Gf256Kernels, Gf65536MulAccumulateExhaustiveNibblePatterns) {
  // Words that exercise every nibble value in every nibble position, against
  // coefficients with mixed high/low bytes (the PSHUFB plane-split edge cases).
  std::vector<uint16_t> src;
  for (int n = 0; n < 16; ++n) {
    for (int pos = 0; pos < 4; ++pos) {
      src.push_back(static_cast<uint16_t>(n << (4 * pos)));
    }
  }
  src.push_back(0xFFFF);
  src.push_back(0x0100);
  src.push_back(0x8000);
  for (const SimdMode tier : Tiers()) {
    ScopedSimdMode guard(tier);
    for (uint32_t coeff : {0x0002u, 0x0100u, 0x1234u, 0x8001u, 0xFFFFu}) {
      std::vector<uint16_t> dst(src.size(), 0);
      std::vector<uint16_t> expected(src.size(), 0);
      for (size_t i = 0; i < src.size(); ++i) {
        expected[i] = Gf65536::Mul(src[i], static_cast<uint16_t>(coeff));
      }
      Gf65536::MulAccumulate(dst, src, static_cast<uint16_t>(coeff));
      ASSERT_EQ(dst, expected)
          << "tier " << SimdModeName(tier) << " coeff " << coeff;
    }
  }
}

TEST(Gf256Kernels, Gf65536MulAccumulateEveryCoefficient) {
  // Every nonzero coefficient on words holding every nibble value in every
  // nibble position: pins each per-coefficient table entry of every tier.
  std::vector<uint16_t> src;
  for (int n = 0; n < 16; ++n) {
    for (int pos = 0; pos < 4; ++pos) {
      src.push_back(static_cast<uint16_t>(n << (4 * pos)));
    }
  }
  src.push_back(0xFFFF);
  std::vector<uint16_t> expected(src.size());
  std::vector<uint16_t> dst(src.size());
  for (const SimdMode tier : Tiers()) {
    ScopedSimdMode guard(tier);
    for (uint32_t coeff = 1; coeff <= 0xFFFF; ++coeff) {
      const auto c = static_cast<uint16_t>(coeff);
      for (size_t i = 0; i < src.size(); ++i) {
        expected[i] = Gf65536::Mul(src[i], c);
      }
      std::fill(dst.begin(), dst.end(), 0);
      Gf65536::MulAccumulate(dst, src, c);
      ASSERT_EQ(dst, expected) << "tier " << SimdModeName(tier) << " coeff " << coeff;
    }
  }
}

// --- Packed parity fold ----------------------------------------------------

TEST(Gf256Kernels, XorAndFoldMatchesInlineLoop) {
  for (const SimdMode tier : Tiers()) {
    ScopedSimdMode guard(tier);
    const auto kernel = ActiveKernels().xor_and_fold;
    if (kernel == nullptr) {
      continue;  // tier uses the callers' inline loop; nothing to differentiate
    }
    for (uint64_t seed = 1; seed <= 50; ++seed) {
      Rng rng(seed + 3000);
      const size_t words = seed % 13;  // 0..3x the 4-word AVX2 width
      std::vector<uint64_t> a(words);
      std::vector<uint64_t> b(words);
      for (auto& w : a) {
        w = rng.NextU64();
      }
      for (auto& w : b) {
        w = rng.NextU64();
      }
      uint64_t expected = 0;
      for (size_t i = 0; i < words; ++i) {
        expected ^= a[i] & b[i];
      }
      ASSERT_EQ(kernel(a.data(), b.data(), words), expected)
          << "tier " << SimdModeName(tier) << " seed " << seed;
    }
  }
}

// --- Field axioms through the kernel layer ---------------------------------

// Kernel-level multiply: a 1-byte MulAccumulate into a zero destination.
uint8_t KernelMul(uint8_t a, uint8_t b) {
  uint8_t dst = 0;
  Gf256::MulAccumulate(std::span<uint8_t>(&dst, 1),
                       std::span<const uint8_t>(&a, 1), b);
  return dst;
}

TEST(Gf256Kernels, FieldAxiomsHoldThroughEveryTier) {
  for (const SimdMode tier : Tiers()) {
    ScopedSimdMode guard(tier);
    Rng rng(42);
    for (int i = 0; i < 500; ++i) {
      const auto a = static_cast<uint8_t>(rng.UniformInt(0, 255));
      const auto b = static_cast<uint8_t>(rng.UniformInt(0, 255));
      const auto c = static_cast<uint8_t>(rng.UniformInt(0, 255));
      // Commutativity and associativity.
      ASSERT_EQ(KernelMul(a, b), KernelMul(b, a)) << SimdModeName(tier);
      ASSERT_EQ(KernelMul(KernelMul(a, b), c), KernelMul(a, KernelMul(b, c)))
          << SimdModeName(tier);
      // Distributivity over field addition (XOR).
      ASSERT_EQ(KernelMul(static_cast<uint8_t>(b ^ c), a),
                KernelMul(b, a) ^ KernelMul(c, a))
          << SimdModeName(tier);
    }
  }
}

TEST(Gf256Kernels, InverseRoundTripAllNonzeroElementsEveryTier) {
  for (const SimdMode tier : Tiers()) {
    ScopedSimdMode guard(tier);
    for (int a = 1; a < 256; ++a) {
      const uint8_t inv = Gf256::Inv(static_cast<uint8_t>(a));
      ASSERT_EQ(KernelMul(static_cast<uint8_t>(a), inv), 1)
          << SimdModeName(tier) << " a=" << a;
      // Scale by a then by a^-1 restores the buffer through the kernel path.
      std::vector<uint8_t> data(67);
      for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint8_t>(i * 5 + 1);
      }
      const std::vector<uint8_t> original = data;
      Gf256::ScaleInPlace(data, static_cast<uint8_t>(a));
      Gf256::ScaleInPlace(data, inv);
      ASSERT_EQ(data, original) << SimdModeName(tier) << " a=" << a;
    }
  }
}

// --- LDPC regression: vectorized min-sum vs the scalar-tier decoder --------

TEST(Gf256Kernels, LdpcDecodeIdenticalAcrossTiersOn50DrawCorpus) {
  // Same code shape, seeds, and sigma sweep as parallel_test.cc's
  // LdpcCsr.DecodeBitIdenticalToReferenceOn50Draws corpus: the draws span
  // clean converges, multi-iteration converges, and outright failures.
  const auto code = LdpcCode::Build(
      {.block_bits = 512, .rate = 0.75, .column_weight = 3, .seed = 5});
  Rng rng(1234);
  std::vector<std::vector<float>> corpus;
  for (int draw = 0; draw < 50; ++draw) {
    std::vector<uint8_t> info(code.k());
    for (auto& b : info) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 1));
    }
    const auto codeword = code.Encode(info);
    std::vector<float> llr(code.n());
    const double sigma = 0.7 + 0.02 * draw;
    for (size_t i = 0; i < llr.size(); ++i) {
      const double clean = codeword[i] ? -2.0 : 2.0;
      llr[i] = static_cast<float>(clean + rng.Normal(0.0, sigma));
    }
    corpus.push_back(std::move(llr));
  }

  ScopedSimdMode scalar_guard(SimdMode::kScalar);
  std::vector<LdpcCode::DecodeResult> reference;
  for (const auto& llr : corpus) {
    reference.push_back(code.Decode(llr, 50));
  }
  for (const SimdMode tier : Tiers()) {
    ASSERT_TRUE(SetSimdMode(tier));
    for (size_t draw = 0; draw < corpus.size(); ++draw) {
      const auto result = code.Decode(corpus[draw], 50);
      ASSERT_EQ(result.ok, reference[draw].ok)
          << SimdModeName(tier) << " draw " << draw;
      ASSERT_EQ(result.iterations, reference[draw].iterations)
          << SimdModeName(tier) << " draw " << draw;
      ASSERT_EQ(result.codeword, reference[draw].codeword)
          << SimdModeName(tier) << " draw " << draw;
    }
  }
}

TEST(Gf256Kernels, LdpcPackedEncodeIdenticalAcrossTiers) {
  const auto code = LdpcCode::Build(
      {.block_bits = 512, .rate = 0.75, .column_weight = 3, .seed = 5});
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<uint64_t> packed(code.info_words());
    for (auto& w : packed) {
      w = rng.NextU64();
    }
    // Mask tail bits beyond k so the packed input is well-formed.
    const size_t tail_bits = code.k() % 64;
    if (tail_bits != 0) {
      packed.back() &= (uint64_t{1} << tail_bits) - 1;
    }
    ScopedSimdMode scalar_guard(SimdMode::kScalar);
    const auto reference = code.EncodePacked(packed);
    for (const SimdMode tier : Tiers()) {
      ASSERT_TRUE(SetSimdMode(tier));
      ASSERT_EQ(code.EncodePacked(packed), reference)
          << SimdModeName(tier) << " trial " << trial;
    }
  }
}

// --- End-to-end: recovery through the batched NC path ----------------------

TEST(Gf256Kernels, NetworkCodecReconstructIdenticalAcrossTiers) {
  constexpr size_t kInfo = 16;
  constexpr size_t kRedundancy = 4;
  constexpr size_t kShardLen = 257;  // odd length exercises remainder paths
  const NetworkCodec codec(kInfo, kRedundancy);
  Rng rng(5);
  std::vector<std::vector<uint8_t>> info(kInfo, std::vector<uint8_t>(kShardLen));
  for (auto& shard : info) {
    for (auto& b : shard) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
  }
  std::vector<std::vector<uint8_t>> redundancy(
      kRedundancy, std::vector<uint8_t>(kShardLen, 0));
  std::vector<std::span<const uint8_t>> info_views(info.begin(), info.end());
  std::vector<std::span<uint8_t>> red_views(redundancy.begin(),
                                            redundancy.end());

  ScopedSimdMode scalar_guard(SimdMode::kScalar);
  codec.Encode(info_views, red_views, nullptr);

  // Lose shards 0..R-1; recover from the tail of the group.
  std::vector<size_t> missing{0, 1, 2, 3};
  std::vector<size_t> present_indices;
  std::vector<std::span<const uint8_t>> present;
  for (size_t i = kRedundancy; i < kInfo; ++i) {
    present_indices.push_back(i);
    present.push_back(info[i]);
  }
  for (size_t r = 0; r < kRedundancy; ++r) {
    present_indices.push_back(kInfo + r);
    present.push_back(redundancy[r]);
  }

  std::vector<std::vector<std::vector<uint8_t>>> results;
  for (const SimdMode tier : Tiers()) {
    ASSERT_TRUE(SetSimdMode(tier));
    std::vector<std::vector<uint8_t>> recovered(
        kRedundancy, std::vector<uint8_t>(kShardLen, 0));
    std::vector<std::span<uint8_t>> rec_views(recovered.begin(),
                                              recovered.end());
    ASSERT_TRUE(
        codec.Reconstruct(present_indices, present, missing, rec_views, nullptr));
    // Recovery must reproduce the lost information shards exactly.
    for (size_t m = 0; m < kRedundancy; ++m) {
      ASSERT_EQ(recovered[m], info[m]) << SimdModeName(tier) << " shard " << m;
    }
    results.push_back(std::move(recovered));
  }
  for (size_t t = 1; t < results.size(); ++t) {
    ASSERT_EQ(results[t], results[0]);
  }
}

// --- Fused soft demapper ----------------------------------------------------

// Demaps `obs` under every available tier; each must return the scalar loop's
// LLRs bit for bit.
void ExpectDemapIdenticalAcrossTiers(const SoftDecoder& decoder,
                                     std::span<const VoxelObservable> obs,
                                     const std::string& what) {
  std::vector<float> reference;
  {
    ScopedSimdMode guard(SimdMode::kScalar);
    reference = decoder.DemapToLlrs(obs);
  }
  ASSERT_EQ(reference.size(),
            obs.size() * static_cast<size_t>(decoder.constellation().bits_per_voxel()));
  for (const SimdMode tier : Tiers()) {
    ScopedSimdMode guard(tier);
    const auto llrs = decoder.DemapToLlrs(obs);
    ASSERT_EQ(llrs.size(), reference.size());
    for (size_t i = 0; i < llrs.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(llrs[i]), std::bit_cast<uint32_t>(reference[i]))
          << "tier " << SimdModeName(tier) << ", " << what << ", llr " << i
          << ": " << llrs[i] << " vs scalar " << reference[i];
    }
  }
}

// Every measurement shape a read channel can produce plus the edges of the
// demapper's domain: the clamped retardance range, azimuths on and outside
// [0, pi) (reduced mod pi), and non-finite values.
std::vector<VoxelObservable> DemapEdgeObservables() {
  const double pi = 3.14159265358979323846;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> retardances = {0.0, -0.0, 1e-9, 0.4, 0.7, 1.0, 1.5,
                                           -0.2, 3.0, nan, inf, -inf};
  const std::vector<double> azimuths = {0.0,  -0.0, 1e-12, std::nextafter(pi, 0.0),
                                        pi,   0.3,  -0.3,  pi + 0.2,
                                        7.0,  -100.0, 1e6, 1e300,
                                        nan,  inf,  -inf};
  std::vector<VoxelObservable> obs;
  for (const double r : retardances) {
    for (const double a : azimuths) {
      obs.push_back({r, a});
    }
  }
  return obs;
}

std::vector<VoxelObservable> RandomObservables(size_t count, Rng& rng) {
  std::vector<VoxelObservable> obs(count);
  for (auto& o : obs) {
    o.retardance = rng.Uniform(-0.1, 1.6);
    o.azimuth = rng.Uniform(0.0, 3.14159265358979323846);
  }
  return obs;
}

TEST(Gf256Kernels, SoftDemapIdenticalAcrossTiersEveryConstellation) {
  Rng rng(2718);
  const ReadChannelParams pristine{};
  // The stale decoder of ChannelEstimator.CalibratedDecoderBeatsStale.
  const ReadChannelParams stale{.retardance_sigma = 0.004, .azimuth_sigma = 0.006};
  for (int bits = 1; bits <= 6; ++bits) {
    const Constellation constellation(bits);
    const std::vector<std::pair<std::string, SoftDecoder>> decoders = {
        {"pristine", SoftDecoder(constellation, pristine)},
        {"stale", SoftDecoder(constellation, stale)},
        {"temperature 2.5", SoftDecoder(constellation, pristine, {.temperature = 2.5})},
        {"temperature 0.4", SoftDecoder(constellation, pristine, {.temperature = 0.4})},
        {"miss_prior 0.5", SoftDecoder(constellation, pristine, {.miss_prior = 0.5})},
    };
    std::vector<VoxelObservable> points;
    for (int s = 0; s < constellation.num_symbols(); ++s) {
      points.push_back(constellation.Point(static_cast<uint16_t>(s)));
    }
    const auto edges = DemapEdgeObservables();
    const auto random = RandomObservables(2048 + 3, rng);
    for (const auto& [name, decoder] : decoders) {
      const std::string what = std::to_string(bits) + " bits, " + name;
      ExpectDemapIdenticalAcrossTiers(decoder, points, what + ", exact points");
      ExpectDemapIdenticalAcrossTiers(decoder, edges, what + ", edges");
      ExpectDemapIdenticalAcrossTiers(decoder, random, what + ", random");
    }
  }
}

TEST(Gf256Kernels, SoftDemapIdenticalAcrossTiersForEverySectorLength) {
  // Lengths around the 8-voxel block, so every partial final block is run.
  Rng rng(31415);
  const Constellation constellation(3);
  const SoftDecoder decoder(constellation, ReadChannelParams{});
  const auto random = RandomObservables(3 * 8 + 3, rng);
  for (size_t len = 0; len <= random.size(); ++len) {
    ExpectDemapIdenticalAcrossTiers(
        decoder, std::span<const VoxelObservable>(random.data(), len),
        "length " + std::to_string(len));
  }
  // Out-of-range azimuths in a short final block and at every lane.
  auto edges = DemapEdgeObservables();
  for (size_t len = 1; len <= 17; ++len) {
    ExpectDemapIdenticalAcrossTiers(
        decoder, std::span<const VoxelObservable>(edges.data() + edges.size() - len, len),
        "edge tail length " + std::to_string(len));
  }
}

// --- Box-Muller noise -------------------------------------------------------

// GaussianFill in every tier against the scalar reference, bit for bit.
void ExpectGaussianIdenticalAcrossTiers(const uint64_t* draws, size_t stride,
                                        size_t n, const std::string& what) {
  std::vector<double> reference(2 * n);
  GaussianFillReference(draws, stride, n, reference.data());
  for (const SimdMode tier : Tiers()) {
    ScopedSimdMode guard(tier);
    std::vector<double> normals(2 * n);
    GaussianFill(draws, stride, n, normals.data());
    for (size_t i = 0; i < normals.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(normals[i]),
                std::bit_cast<uint64_t>(reference[i]))
          << "tier " << SimdModeName(tier) << ", " << what << ", normal " << i
          << ": " << normals[i] << " vs scalar " << reference[i];
    }
  }
}

TEST(Gf256Kernels, GaussianFillIdenticalAcrossTiers) {
  // Edge u1 draws: k = u1 >> 11 of 0 (clamped to 1), 1, 2^53 - 1, every power
  // of two and its neighbours, each with clear and set low bits.
  std::vector<uint64_t> u1s;
  for (const uint64_t k : {uint64_t{0}, uint64_t{1}, (uint64_t{1} << 53) - 1}) {
    u1s.push_back(k << 11);
  }
  for (int j = 1; j < 53; ++j) {
    for (const uint64_t k : {(uint64_t{1} << j) - 1, uint64_t{1} << j,
                             (uint64_t{1} << j) + 1}) {
      u1s.push_back(k << 11);
      u1s.push_back((k << 11) | 0x7FF);
    }
  }
  // Edge u2 draws: every octant boundary of theta and 1 ulp of u2 either side.
  std::vector<uint64_t> u2s;
  for (uint64_t octant = 0; octant <= 8; ++octant) {
    const uint64_t k = octant << 50;
    for (const uint64_t kk : {k - 1, k, k + 1}) {
      if (kk < (uint64_t{1} << 53)) {
        u2s.push_back(kk << 11);
      }
    }
  }
  std::vector<uint64_t> edges;
  for (const uint64_t u1 : u1s) {
    for (const uint64_t u2 : u2s) {
      edges.push_back(u1);
      edges.push_back(u2);
    }
  }
  ExpectGaussianIdenticalAcrossTiers(edges.data(), 2, edges.size() / 2, "edge draws");

  // Random draws at the read channel's stride (crosstalk, u1, u2), for every
  // length around the 4-pair block and one odd sector-sized length.
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed + 9000);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                           size_t{5}, size_t{6}, size_t{7}, size_t{8}, size_t{9},
                           size_t{10}, size_t{11}, size_t{12}, size_t{13},
                           size_t{2051}}) {
      std::vector<uint64_t> draws(3 * n + 1);  // never empty: the pairs start at 1
      rng.FillU64(draws.data(), draws.size());
      ExpectGaussianIdenticalAcrossTiers(
          draws.data() + 1, 3, n,
          "seed " + std::to_string(seed) + ", length " + std::to_string(n));
    }
  }
}

// --- Dispatch plumbing -----------------------------------------------------

TEST(Gf256Kernels, DispatchModesRoundTripAndScalarAlwaysAvailable) {
  const auto modes = AvailableSimdModes();
  ASSERT_FALSE(modes.empty());
  EXPECT_EQ(modes.front(), SimdMode::kScalar);
  for (const SimdMode mode : modes) {
    const auto parsed = ParseSimdMode(SimdModeName(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
    ASSERT_TRUE(SetSimdMode(mode));
    EXPECT_EQ(ActiveSimdMode(), mode);
    EXPECT_EQ(ActiveKernels().tier, mode);
  }
  EXPECT_FALSE(ParseSimdMode("sse9").has_value());
  ASSERT_TRUE(SetSimdMode(SimdMode::kAuto));
  EXPECT_NE(ActiveSimdMode(), SimdMode::kAuto);  // auto resolves to a real tier
}

}  // namespace
}  // namespace silica
