#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "channel/channel_model.h"
#include "channel/constellation.h"
#include "channel/sector_codec.h"
#include "channel/soft_decoder.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ecc/bits.h"
#include "media/geometry.h"
#include "media/platter.h"

namespace silica {
namespace {

TEST(Constellation, SymbolCountMatchesBits) {
  for (int bits : {1, 2, 3, 4}) {
    Constellation c(bits);
    EXPECT_EQ(c.num_symbols(), 1 << bits);
    EXPECT_EQ(c.num_retardance_levels() * c.num_azimuth_levels(), 1 << bits);
  }
}

TEST(Constellation, PointsAreDistinct) {
  Constellation c(3);
  for (int a = 0; a < c.num_symbols(); ++a) {
    for (int b = a + 1; b < c.num_symbols(); ++b) {
      const auto& pa = c.Point(static_cast<uint16_t>(a));
      const auto& pb = c.Point(static_cast<uint16_t>(b));
      const bool same_r = std::fabs(pa.retardance - pb.retardance) < 1e-9;
      const bool same_a =
          Constellation::WrappedAzimuthDelta(pa.azimuth, pb.azimuth) < 1e-9;
      EXPECT_FALSE(same_r && same_a) << "symbols " << a << " and " << b << " collide";
    }
  }
}

TEST(Constellation, WrittenLevelsClearOfMissing) {
  // The lowest retardance level must be well above 0 so that missing voxels are
  // distinguishable from written ones.
  Constellation c(3);
  for (int s = 0; s < c.num_symbols(); ++s) {
    EXPECT_GE(c.Point(static_cast<uint16_t>(s)).retardance, 0.35);
  }
}

TEST(Constellation, WrappedAzimuthDelta) {
  EXPECT_NEAR(Constellation::WrappedAzimuthDelta(0.1, M_PI - 0.1), 0.2, 1e-12);
  EXPECT_NEAR(Constellation::WrappedAzimuthDelta(1.0, 1.5), 0.5, 1e-12);
  EXPECT_NEAR(Constellation::WrappedAzimuthDelta(0.3, 0.3), 0.0, 1e-12);
}

TEST(WriteChannel, NoiselessWritePreservesConstellation) {
  Constellation c(3);
  WriteChannel channel(c, {.voxel_miss_prob = 0.0, .burst_miss_prob = 0.0});
  Rng rng(1);
  std::vector<uint16_t> symbols = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto sector = channel.WriteSector(symbols, 2, 4, rng);
  for (size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_DOUBLE_EQ(sector.voxels[i].retardance, c.Point(symbols[i]).retardance);
    EXPECT_DOUBLE_EQ(sector.voxels[i].azimuth, c.Point(symbols[i]).azimuth);
    EXPECT_EQ(sector.missing[i], 0);
  }
}

TEST(WriteChannel, MissingVoxelsHaveZeroRetardance) {
  Constellation c(3);
  WriteChannel channel(c, {.voxel_miss_prob = 1.0, .burst_miss_prob = 0.0});
  Rng rng(2);
  std::vector<uint16_t> symbols(16, 5);
  const auto sector = channel.WriteSector(symbols, 4, 4, rng);
  for (size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_EQ(sector.missing[i], 1);
    EXPECT_DOUBLE_EQ(sector.voxels[i].retardance, 0.0);
  }
}

TEST(WriteChannel, BurstBlanksARun) {
  Constellation c(3);
  WriteChannel channel(c, {.voxel_miss_prob = 0.0,
                           .burst_miss_prob = 0.0,
                           .burst_length = 8});
  // With burst prob 0 nothing is blanked...
  Rng rng(3);
  std::vector<uint16_t> symbols(64, 1);
  auto sector = channel.WriteSector(symbols, 8, 8, rng);
  int missing = 0;
  for (auto m : sector.missing) {
    missing += m;
  }
  EXPECT_EQ(missing, 0);
  // ...with prob 1 every voxel is inside some burst.
  WriteChannel bursty(c, {.voxel_miss_prob = 0.0,
                          .burst_miss_prob = 1.0,
                          .burst_length = 8});
  sector = bursty.WriteSector(symbols, 8, 8, rng);
  missing = 0;
  for (auto m : sector.missing) {
    missing += m;
  }
  EXPECT_EQ(missing, 64);
}

TEST(ReadChannel, LowNoiseMeasurementsNearTruth) {
  Constellation c(3);
  WriteChannel writer(c, {.voxel_miss_prob = 0.0, .burst_miss_prob = 0.0});
  ReadChannel reader({.retardance_sigma = 1e-4,
                      .azimuth_sigma = 1e-4,
                      .isi_coupling = 0.0,
                      .layer_crosstalk = 0.0});
  Rng rng(4);
  std::vector<uint16_t> symbols(64);
  for (size_t i = 0; i < symbols.size(); ++i) {
    symbols[i] = static_cast<uint16_t>(i % 8);
  }
  const auto sector = writer.WriteSector(symbols, 8, 8, rng);
  const auto measured = reader.ReadSector(sector, rng);
  for (size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_NEAR(measured[i].retardance, c.Point(symbols[i]).retardance, 0.01);
    EXPECT_LT(Constellation::WrappedAzimuthDelta(measured[i].azimuth,
                                                 c.Point(symbols[i]).azimuth),
              0.01);
  }
}

// The read loop before the bounds-check-free interior, the fmod skip and the
// bulk Box-Muller kernel, verbatim: the libm tolerance oracle. Run from a
// stream with no cached normal, it consumes the same three draws per voxel as
// ReadSector unless a u1 draw is 0, which it redraws.
std::vector<VoxelObservable> LibmReadSector(const ReadChannelParams& params_,
                                            const AnalogSector& sector, Rng& rng) {
  std::vector<VoxelObservable> measured(sector.voxels.size());

  for (int r = 0; r < sector.rows; ++r) {
    for (int c = 0; c < sector.cols; ++c) {
      const size_t i = sector.Index(r, c);
      const VoxelObservable& v = sector.voxels[i];

      double neighbour_sum = 0.0;
      int neighbour_count = 0;
      for (int dr = -1; dr <= 1; ++dr) {
        for (int dc = -1; dc <= 1; ++dc) {
          if (dr == 0 && dc == 0) {
            continue;
          }
          const int nr = r + dr;
          const int nc = c + dc;
          if (nr >= 0 && nr < sector.rows && nc >= 0 && nc < sector.cols) {
            neighbour_sum += sector.voxels[sector.Index(nr, nc)].retardance;
            ++neighbour_count;
          }
        }
      }
      const double neighbour_mean =
          neighbour_count > 0 ? neighbour_sum / neighbour_count : 0.0;

      double retardance = v.retardance +
                          params_.isi_coupling * (neighbour_mean - v.retardance) +
                          params_.layer_crosstalk * rng.NextDouble() +
                          rng.Normal(0.0, params_.retardance_sigma);
      retardance = std::clamp(retardance, 0.0, 1.5);

      double azimuth = v.azimuth + rng.Normal(0.0, params_.azimuth_sigma);
      azimuth = std::fmod(azimuth, M_PI);
      if (azimuth < 0.0) {
        azimuth += M_PI;
      }

      measured[i].retardance = retardance;
      measured[i].azimuth = azimuth;
    }
  }
  return measured;
}

// The bulk-noise read loop with serial draws: per voxel three NextU64 calls
// (crosstalk, u1, u2) and one scalar Gaussian reference pair. ReadSector and
// ReadSymbols must reproduce it bit for bit, including the Rng end state.
std::vector<VoxelObservable> ReferenceReadSector(const ReadChannelParams& params,
                                                 const AnalogSector& sector,
                                                 Rng& rng) {
  std::vector<VoxelObservable> measured(sector.voxels.size());
  for (int r = 0; r < sector.rows; ++r) {
    for (int c = 0; c < sector.cols; ++c) {
      const size_t i = sector.Index(r, c);
      const VoxelObservable& v = sector.voxels[i];

      double neighbour_sum = 0.0;
      int neighbour_count = 0;
      for (int dr = -1; dr <= 1; ++dr) {
        for (int dc = -1; dc <= 1; ++dc) {
          if (dr == 0 && dc == 0) {
            continue;
          }
          const int nr = r + dr;
          const int nc = c + dc;
          if (nr >= 0 && nr < sector.rows && nc >= 0 && nc < sector.cols) {
            neighbour_sum += sector.voxels[sector.Index(nr, nc)].retardance;
            ++neighbour_count;
          }
        }
      }
      const double neighbour_mean =
          neighbour_count > 0 ? neighbour_sum / neighbour_count : 0.0;

      const uint64_t crosstalk_bits = rng.NextU64();
      uint64_t u[2];
      u[0] = rng.NextU64();
      u[1] = rng.NextU64();
      double normal[2];
      GaussianFillReference(u, 2, 1, normal);

      double retardance =
          v.retardance + params.isi_coupling * (neighbour_mean - v.retardance) +
          params.layer_crosstalk *
              (static_cast<double>(crosstalk_bits >> 11) * 0x1.0p-53) +
          params.retardance_sigma * normal[0];
      retardance = std::clamp(retardance, 0.0, 1.5);

      double azimuth = v.azimuth + params.azimuth_sigma * normal[1];
      azimuth = std::fmod(azimuth, M_PI);
      if (azimuth < 0.0) {
        azimuth += M_PI;
      }

      measured[i].retardance = retardance;
      measured[i].azimuth = azimuth;
    }
  }
  return measured;
}

void ExpectSameMeasurements(const std::vector<VoxelObservable>& got,
                            const std::vector<VoxelObservable>& want,
                            const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(got[i].retardance),
              std::bit_cast<uint64_t>(want[i].retardance))
        << what << ", voxel " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(got[i].azimuth),
              std::bit_cast<uint64_t>(want[i].azimuth))
        << what << ", voxel " << i;
  }
}

// Both streams must continue identically: the cached Box-Muller variate shows
// up in the next Normal(), the raw state in the next NextU64().
void ExpectSameRngState(Rng a, Rng b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a.Normal()), std::bit_cast<uint64_t>(b.Normal()))
      << what;
  EXPECT_EQ(a.NextU64(), b.NextU64()) << what;
}

// Every measurement within `tolerance` of the oracle's, azimuth modulo pi.
void ExpectCloseMeasurements(const std::vector<VoxelObservable>& got,
                             const std::vector<VoxelObservable>& want,
                             double tolerance, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i].retardance, want[i].retardance, tolerance)
        << what << ", voxel " << i;
    ASSERT_LE(std::fabs(std::remainder(got[i].azimuth - want[i].azimuth, M_PI)),
              tolerance)
        << what << ", voxel " << i << ": " << got[i].azimuth << " vs "
        << want[i].azimuth;
  }
}

// The libm oracle redraws a u1 of 0 and the bulk path does not; a corpus
// without one keeps both on the same three draws per voxel.
void ExpectNoZeroU1(Rng rng, size_t voxels, const std::string& what) {
  std::vector<uint64_t> draws(3 * voxels);
  rng.FillU64(draws.data(), draws.size());
  for (size_t i = 0; i < voxels; ++i) {
    ASSERT_NE(draws[3 * i + 1] >> 11, 0u) << what << ", voxel " << i;
  }
}

TEST(ReadChannel, MatchesReferenceLoopBitForBit) {
  const Constellation c(3);
  const ReadChannelParams pristine{};
  const std::vector<std::pair<std::string, ReadChannelParams>> channels = {
      {"pristine", pristine},
      {"aged 1.88", pristine.Aged(1.88)},
      {"aged 2.2", pristine.Aged(2.2)},
      // Azimuth noise wide enough that many draws leave [0, pi) on both sides.
      {"wild", {.retardance_sigma = 0.6, .azimuth_sigma = 4.0,
                .isi_coupling = 0.3, .layer_crosstalk = 0.3}},
  };
  const std::vector<std::pair<int, int>> shapes = {
      {32, 64}, {1, 64}, {64, 1}, {1, 1}, {2, 2}, {3, 5}, {1, 2}, {2, 1}};
  // Frequent dropouts, so blank voxels sit in interiors and on borders.
  WriteChannel writer(c, {.voxel_miss_prob = 0.05, .burst_miss_prob = 0.002,
                          .burst_length = 5});
  Rng rng(99);
  for (const auto& [name, params] : channels) {
    const ReadChannel reader(params);
    for (const auto& [rows, cols] : shapes) {
      const std::string what = name + " " + std::to_string(rows) + "x" +
                               std::to_string(cols);
      std::vector<uint16_t> symbols(static_cast<size_t>(rows * cols));
      for (auto& s : symbols) {
        s = static_cast<uint16_t>(rng.UniformInt(0, 7));
      }
      const AnalogSector analog = writer.WriteSector(symbols, rows, cols, rng);
      // The same written state as stored symbols (the platter's view).
      std::vector<uint16_t> stored = symbols;
      for (size_t i = 0; i < stored.size(); ++i) {
        if (analog.missing[i]) {
          stored[i] = kMissingVoxel;
        }
      }
      // Start every read mid-pair, with a cached normal, which the read must
      // leave pending: the next Normal() is the one cached before the read.
      rng.Normal();
      Rng ref_rng = rng;
      Rng sector_rng = rng;
      Rng symbols_rng = rng;
      const auto want = ReferenceReadSector(params, analog, ref_rng);
      ExpectSameMeasurements(reader.ReadSector(analog, sector_rng), want,
                             what + " ReadSector");
      ExpectSameMeasurements(reader.ReadSymbols(c, stored, rows, cols, symbols_rng),
                             want, what + " ReadSymbols");
      ExpectSameRngState(sector_rng, ref_rng, what + " ReadSector");
      ExpectSameRngState(symbols_rng, ref_rng, what + " ReadSymbols");
      {
        Rng before = rng;
        Rng after = sector_rng;
        EXPECT_EQ(std::bit_cast<uint64_t>(before.Normal()),
                  std::bit_cast<uint64_t>(after.Normal()))
            << what << ": cached normal lost";
      }

      // The libm Box-Muller loop bounds the kernel's error, from a stream with
      // no cached normal (Fork never carries one).
      const Rng fresh = rng.Fork(symbols.size());
      ExpectNoZeroU1(fresh, symbols.size(), what);
      Rng libm_rng = fresh;
      Rng libm_sector_rng = fresh;
      Rng libm_symbols_rng = fresh;
      const auto libm = LibmReadSector(params, analog, libm_rng);
      ExpectCloseMeasurements(reader.ReadSector(analog, libm_sector_rng), libm,
                              1e-12, what + " ReadSector vs libm");
      ExpectCloseMeasurements(
          reader.ReadSymbols(c, stored, rows, cols, libm_symbols_rng), libm, 1e-12,
          what + " ReadSymbols vs libm");
      ExpectSameRngState(libm_sector_rng, libm_rng, what + " ReadSector vs libm");
      ExpectSameRngState(libm_symbols_rng, libm_rng, what + " ReadSymbols vs libm");
      rng = ref_rng;
      rng.Normal();  // drain the pending normal; the next case caches a fresh one
    }
  }
}

// The active tier's Gaussian kernel against libm Box-Muller on the same
// draws, pair by pair, and its 2 x 10^6 normals against N(0, 1): moments and
// tail mass within 5 sigma of their sampling error.
TEST(ReadChannel, GaussianFillMatchesBoxMuller) {
  constexpr size_t kPairs = 1'000'000;
  Rng rng(4242);
  std::vector<uint64_t> draws(2 * kPairs);
  rng.FillU64(draws.data(), draws.size());
  std::vector<double> normals(2 * kPairs);
  GaussianFill(draws.data(), 2, kPairs, normals.data());

  double max_error = 0.0;
  for (size_t i = 0; i < kPairs; ++i) {
    const uint64_t k = draws[2 * i] >> 11;
    ASSERT_NE(k, 0u) << "pair " << i;  // libm Box-Muller would redraw it
    const double u1 = static_cast<double>(k) * 0x1.0p-53;
    const double u2 = static_cast<double>(draws[2 * i + 1] >> 11) * 0x1.0p-53;
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    max_error = std::max({max_error, std::fabs(normals[2 * i] - r * std::cos(theta)),
                          std::fabs(normals[2 * i + 1] - r * std::sin(theta))});
    ASSERT_LE(max_error, 1e-13) << "pair " << i;
  }

  const auto n = static_cast<double>(normals.size());
  double sum = 0.0;
  double sum2 = 0.0;
  double sum4 = 0.0;
  size_t beyond3 = 0;
  size_t beyond4 = 0;
  for (const double x : normals) {
    sum += x;
    sum2 += x * x;
    sum4 += x * x * x * x;
    beyond3 += std::fabs(x) > 3.0 ? 1 : 0;
    beyond4 += std::fabs(x) > 4.0 ? 1 : 0;
  }
  // Sampling standard errors of N(0, 1) moments about the known mean:
  // Var(x) = 1, Var(x^2) = 2, Var(x^4) = E[x^8] - 9 = 96.
  EXPECT_LE(std::fabs(sum / n), 5.0 * std::sqrt(1.0 / n));
  EXPECT_LE(std::fabs(sum2 / n - 1.0), 5.0 * std::sqrt(2.0 / n));
  EXPECT_LE(std::fabs(sum4 / n - 3.0), 5.0 * std::sqrt(96.0 / n));
  for (const auto& [count, sigmas] : {std::pair{beyond3, 3.0}, std::pair{beyond4, 4.0}}) {
    const double p = std::erfc(sigmas / std::sqrt(2.0));
    EXPECT_LE(std::fabs(static_cast<double>(count) - n * p),
              5.0 * std::sqrt(n * p * (1.0 - p)))
        << "mass beyond " << sigmas << " sigma";
  }
  std::printf("max |kernel - libm| %.3g over %zu pairs\n", max_error, kPairs);
}

TEST(ReadChannel, ReadSymbolsRejectsWrongShape) {
  const Constellation c(3);
  const ReadChannel reader(ReadChannelParams{});
  Rng rng(1);
  const std::vector<uint16_t> symbols(10, 0);
  EXPECT_THROW(reader.ReadSymbols(c, symbols, 3, 4, rng), std::invalid_argument);
}

TEST(SoftDecoder, CleanChannelYieldsConfidentCorrectPosteriors) {
  Constellation c(3);
  WriteChannel writer(c, {.voxel_miss_prob = 0.0, .burst_miss_prob = 0.0});
  ReadChannelParams quiet{.retardance_sigma = 0.01,
                          .azimuth_sigma = 0.01,
                          .isi_coupling = 0.0,
                          .layer_crosstalk = 0.0};
  ReadChannel reader(quiet);
  SoftDecoder decoder(c, quiet);
  Rng rng(5);
  std::vector<uint16_t> symbols(64);
  for (size_t i = 0; i < symbols.size(); ++i) {
    symbols[i] = static_cast<uint16_t>(rng.UniformInt(0, 7));
  }
  const auto sector = writer.WriteSector(symbols, 8, 8, rng);
  const auto measured = reader.ReadSector(sector, rng);
  const auto posteriors = decoder.Decode(measured);
  ASSERT_EQ(posteriors.num_voxels(), symbols.size());
  for (size_t v = 0; v < symbols.size(); ++v) {
    const auto probs = posteriors.Voxel(v);
    EXPECT_GT(probs[symbols[v]], 0.95f) << "voxel " << v;
  }
}

TEST(SoftDecoder, MissingVoxelFlattensPosterior) {
  Constellation c(3);
  ReadChannelParams params{.retardance_sigma = 0.04, .azimuth_sigma = 0.06};
  SoftDecoder decoder(c, params, {.miss_prior = 0.5});
  // A measurement at retardance 0: looks exactly like a missing voxel.
  std::vector<VoxelObservable> measurements = {{.retardance = 0.0, .azimuth = 0.5}};
  const auto posteriors = decoder.Decode(measurements);
  const auto probs = posteriors.Voxel(0);
  float max_p = 0.0f;
  for (int s = 0; s < posteriors.num_symbols; ++s) {
    max_p = std::max(max_p, probs[static_cast<size_t>(s)]);
  }
  EXPECT_LT(max_p, 0.6f) << "a blank voxel must not produce a confident symbol";
}

TEST(SoftDecoder, LlrSignsFollowBits) {
  Constellation c(3);
  ReadChannelParams params{.retardance_sigma = 0.02, .azimuth_sigma = 0.02};
  SoftDecoder decoder(c, params);
  // Perfect measurement of symbol 5 (binary 101).
  std::vector<VoxelObservable> measurements = {c.Point(5)};
  const auto llrs = decoder.DemapToLlrs(measurements);
  ASSERT_EQ(llrs.size(), 3u);
  EXPECT_LT(llrs[0], 0.0f);  // bit0 = 1 -> negative LLR
  EXPECT_GT(llrs[1], 0.0f);  // bit1 = 0 -> positive LLR
  EXPECT_LT(llrs[2], 0.0f);  // bit2 = 1 -> negative LLR
}

// Expects the constructor to throw std::invalid_argument naming `field`.
template <class Make>
void ExpectRejected(Make make, const std::string& field) {
  try {
    make();
    ADD_FAILURE() << field << ": no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

const std::vector<double> kNotPositive = {0.0, -0.0, -0.05,
                                          std::numeric_limits<double>::quiet_NaN(),
                                          std::numeric_limits<double>::infinity(),
                                          -std::numeric_limits<double>::infinity()};

TEST(SoftDecoder, RejectsRetardanceSigmaThatIsNotFinitePositive) {
  const Constellation c(3);
  std::vector<double> bad = kNotPositive;
  bad.push_back(1e-30);  // 1/(2 sigma^2) overflows float
  for (const double sigma : bad) {
    ExpectRejected([&] { SoftDecoder(c, {.retardance_sigma = sigma}); },
                   "retardance_sigma");
  }
}

TEST(SoftDecoder, RejectsAzimuthSigmaThatIsNotFinitePositive) {
  const Constellation c(3);
  std::vector<double> bad = kNotPositive;
  bad.push_back(1e-30);
  for (const double sigma : bad) {
    ExpectRejected([&] { SoftDecoder(c, {.azimuth_sigma = sigma}); }, "azimuth_sigma");
  }
}

TEST(SoftDecoder, RejectsTemperatureThatIsNotFinitePositive) {
  const Constellation c(3);
  std::vector<double> bad = kNotPositive;
  bad.push_back(1e-40);  // 1/temperature overflows float
  for (const double temperature : bad) {
    ExpectRejected([&] { SoftDecoder(c, {}, {.temperature = temperature}); },
                   "temperature");
  }
}

TEST(SoftDecoder, RejectsMissPriorOutsideOpenUnitInterval) {
  const Constellation c(3);
  for (const double prior : {0.0, 1.0, -0.1, 1.5,
                             std::numeric_limits<double>::quiet_NaN()}) {
    ExpectRejected([&] { SoftDecoder(c, {}, {.miss_prior = prior}); }, "miss_prior");
  }
  EXPECT_NO_THROW(SoftDecoder(c, {}, {.miss_prior = 0.5}));
}

class SectorCodecTest : public ::testing::Test {
 protected:
  static const SectorCodec& Codec() {
    static const SectorCodec codec(MediaGeometry::DataPlaneScale());
    return codec;
  }
};

TEST_F(SectorCodecTest, CleanRoundTrip) {
  Rng rng(6);
  std::vector<uint8_t> payload(Codec().payload_bytes());
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  const auto symbols = Codec().EncodeSector(payload);
  EXPECT_EQ(symbols.size(),
            static_cast<size_t>(Codec().geometry().voxels_per_sector()));

  const Constellation constellation(Codec().geometry().bits_per_voxel);
  WriteChannel writer(constellation, {});
  ReadChannelParams params{};
  ReadChannel reader(params);
  SoftDecoder decoder(constellation, params);

  const auto analog = writer.WriteSector(symbols, Codec().geometry().sector_rows,
                                         Codec().geometry().sector_cols, rng);
  const auto measured = reader.ReadSector(analog, rng);
  const auto decoded = Codec().DecodeFromLlrs(decoder.DemapToLlrs(measured));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
}

TEST_F(SectorCodecTest, SurvivesDefaultChannelNoiseRepeatedly) {
  Rng rng(7);
  const Constellation constellation(Codec().geometry().bits_per_voxel);
  WriteChannel writer(constellation, {});
  ReadChannelParams params{};
  ReadChannel reader(params);
  SoftDecoder decoder(constellation, params);

  int failures = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    std::vector<uint8_t> payload(Codec().payload_bytes());
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    const auto symbols = Codec().EncodeSector(payload);
    const auto analog = writer.WriteSector(symbols, Codec().geometry().sector_rows,
                                           Codec().geometry().sector_cols, rng);
    const auto measured = reader.ReadSector(analog, rng);
    const auto decoded = Codec().DecodeFromLlrs(decoder.DemapToLlrs(measured));
    if (!decoded.has_value() || *decoded != payload) {
      ++failures;
    }
  }
  // Default parameters target a ~1e-3 sector failure rate; 30 trials should
  // essentially never fail.
  EXPECT_EQ(failures, 0);
}

TEST_F(SectorCodecTest, HeavyNoiseFailsSafe) {
  Rng rng(8);
  std::vector<uint8_t> payload(Codec().payload_bytes(), 0x5A);
  const auto symbols = Codec().EncodeSector(payload);

  const Constellation constellation(Codec().geometry().bits_per_voxel);
  WriteChannel writer(constellation, {});
  ReadChannelParams heavy{.retardance_sigma = 0.5,
                          .azimuth_sigma = 0.9,
                          .isi_coupling = 0.3,
                          .layer_crosstalk = 0.3};
  ReadChannel reader(heavy);
  SoftDecoder decoder(constellation, heavy);

  const auto analog = writer.WriteSector(symbols, Codec().geometry().sector_rows,
                                         Codec().geometry().sector_cols, rng);
  const auto measured = reader.ReadSector(analog, rng);
  const auto decoded = Codec().DecodeFromLlrs(decoder.DemapToLlrs(measured));
  // Either the decode fails (expected) or — never — returns wrong bytes.
  if (decoded.has_value()) {
    EXPECT_EQ(*decoded, payload);
  }
}

// The double-precision formula the fused float demapper replaced: Decode()'s
// posteriors, then log((P(bit=0) + 1e-12) / (P(bit=1) + 1e-12)) per bit in
// double, clamped to +-30. Kept here as the tolerance oracle.
std::vector<float> DoubleFormulaLlrs(const SoftDecoder& decoder,
                                     std::span<const VoxelObservable> measured) {
  constexpr float kLlrClamp = 30.0f;
  const SectorPosteriors posteriors = decoder.Decode(measured);
  const int bits = decoder.constellation().bits_per_voxel();
  const int num_symbols = posteriors.num_symbols;
  const size_t num_voxels = posteriors.num_voxels();

  std::vector<float> llrs(num_voxels * static_cast<size_t>(bits));
  for (size_t v = 0; v < num_voxels; ++v) {
    const auto probs = posteriors.Voxel(v);
    for (int b = 0; b < bits; ++b) {
      double p0 = 0.0;
      double p1 = 0.0;
      for (int s = 0; s < num_symbols; ++s) {
        if ((s >> b) & 1) {
          p1 += probs[static_cast<size_t>(s)];
        } else {
          p0 += probs[static_cast<size_t>(s)];
        }
      }
      float llr = static_cast<float>(std::log((p0 + 1e-12) / (p1 + 1e-12)));
      llrs[v * static_cast<size_t>(bits) + static_cast<size_t>(b)] =
          std::clamp(llr, -kLlrClamp, kLlrClamp);
    }
  }
  return llrs;
}

TEST_F(SectorCodecTest, FloatDemapTracksDoubleFormulaOnAgedGlass) {
  // The data path's pristine-prior decoder on glass aged to the stresses where
  // LDPC starts failing (1.88) and where it fails outright (2.2): every LLR
  // stays within 1e-4 of the double formula and every sector's LDPC outcome
  // (success and payload) is the same from either LLR set.
  constexpr size_t kSectorsPerStress = 300;
  const MediaGeometry& g = Codec().geometry();
  const Constellation constellation(g.bits_per_voxel);
  const WriteChannel writer(constellation, {});
  const SoftDecoder decoder(constellation, ReadChannelParams{});
  ThreadPool pool(4);
  const Rng base(1788);
  for (const double stress : {0.0, 1.88, 2.2}) {
    const ReadChannel reader(ReadChannelParams{}.Aged(stress));
    struct Outcome {
      double max_error = 0.0;
      bool decoded = false;
      bool agree = false;  // same success and payload from either LLR set
    };
    std::vector<Outcome> outcomes(kSectorsPerStress);
    ParallelFor(&pool, kSectorsPerStress, [&](size_t n) {
      Rng rng = base.Fork(n);
      std::vector<uint8_t> payload(Codec().payload_bytes());
      for (auto& b : payload) {
        b = static_cast<uint8_t>(rng.NextU64());
      }
      const auto analog = writer.WriteSector(Codec().EncodeSector(payload),
                                             g.sector_rows, g.sector_cols, rng);
      const auto measured = reader.ReadSector(analog, rng);
      const auto fused = decoder.DemapToLlrs(measured);
      const auto oracle = DoubleFormulaLlrs(decoder, measured);
      Outcome& out = outcomes[n];
      for (size_t i = 0; i < fused.size() && i < oracle.size(); ++i) {
        out.max_error = std::max(
            out.max_error, std::fabs(static_cast<double>(fused[i]) - oracle[i]));
      }
      if (fused.size() != oracle.size()) {
        out.max_error = 1.0;
      }
      const auto from_fused = Codec().DecodeFromLlrs(fused);
      const auto from_oracle = Codec().DecodeFromLlrs(oracle);
      out.decoded = from_fused.has_value() && *from_fused == payload;
      out.agree = from_fused == from_oracle;
    });
    double max_error = 0.0;
    size_t decoded = 0;
    for (size_t n = 0; n < kSectorsPerStress; ++n) {
      max_error = std::max(max_error, outcomes[n].max_error);
      decoded += outcomes[n].decoded ? 1 : 0;
      EXPECT_TRUE(outcomes[n].agree) << "stress " << stress << ", sector " << n;
    }
    EXPECT_LE(max_error, 1e-4) << "stress " << stress;
    std::printf("stress %.2f: max |dLLR| %.3g, %zu/%zu sectors decode\n", stress,
                max_error, decoded, kSectorsPerStress);
    if (stress == 0.0) {
      EXPECT_EQ(decoded, kSectorsPerStress);
    }
  }
}

TEST_F(SectorCodecTest, WrongPayloadSizeRejected) {
  std::vector<uint8_t> payload(Codec().payload_bytes() + 1, 0);
  EXPECT_THROW(Codec().EncodeSector(payload), std::invalid_argument);
}

}  // namespace
}  // namespace silica
