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

// The read loop before the bounds-check-free interior and the fmod skip,
// verbatim: ReadSector and ReadSymbols must reproduce it bit for bit,
// including every Rng draw.
std::vector<VoxelObservable> ReferenceReadSector(const ReadChannelParams& params_,
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
      // Start every read mid-pair, with a cached normal, to pin consumption.
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
      rng = ref_rng;
    }
  }
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
