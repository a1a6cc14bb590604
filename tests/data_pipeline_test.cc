#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/data_pipeline.h"
#include "ecc/gf65536.h"
#include "ecc/large_group_codec.h"

namespace silica {
namespace {

// ---------- GF(2^16) ----------

TEST(Gf65536, FieldAxioms) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto a = static_cast<uint16_t>(rng.UniformInt(0, 65535));
    const auto b = static_cast<uint16_t>(rng.UniformInt(0, 65535));
    const auto c = static_cast<uint16_t>(rng.UniformInt(0, 65535));
    EXPECT_EQ(Gf65536::Mul(a, b), Gf65536::Mul(b, a));
    EXPECT_EQ(Gf65536::Mul(Gf65536::Mul(a, b), c),
              Gf65536::Mul(a, Gf65536::Mul(b, c)));
    EXPECT_EQ(Gf65536::Mul(a, Gf65536::Add(b, c)),
              Gf65536::Add(Gf65536::Mul(a, b), Gf65536::Mul(a, c)));
    EXPECT_EQ(Gf65536::Mul(a, 1), a);
  }
}

TEST(Gf65536, InverseRoundTrip) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const auto a = static_cast<uint16_t>(rng.UniformInt(1, 65535));
    EXPECT_EQ(Gf65536::Mul(a, Gf65536::Inv(a)), 1);
  }
  EXPECT_THROW(Gf65536::Div(1, 0), std::domain_error);
}

// ---------- Large group codec ----------

class LargeGroupParam : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(LargeGroupParam, RecoversUpToRMissing) {
  const auto [info, redundancy] = GetParam();
  LargeGroupCodec codec(info, redundancy);
  Rng rng(info + redundancy);
  const size_t len = 32;

  std::vector<std::vector<uint16_t>> shards(info, std::vector<uint16_t>(len));
  for (auto& s : shards) {
    for (auto& w : s) {
      w = static_cast<uint16_t>(rng.UniformInt(0, 65535));
    }
  }
  std::vector<std::vector<uint16_t>> red(redundancy, std::vector<uint16_t>(len, 0));
  std::vector<std::span<uint16_t>> red_views(red.begin(), red.end());
  for (size_t i = 0; i < info; ++i) {
    codec.EncodeAccumulate(i, shards[i], red_views);
  }

  // Erase `redundancy` random information shards and recover them.
  std::vector<size_t> missing;
  for (size_t i = 0; missing.size() < redundancy && i < info; ++i) {
    if (rng.Bernoulli(0.5) || info - i == redundancy - missing.size()) {
      missing.push_back(i);
    }
  }
  auto corrupted = shards;
  for (size_t m : missing) {
    std::fill(corrupted[m].begin(), corrupted[m].end(), uint16_t{0xDEAD & 0xFFFF});
  }
  std::vector<std::span<uint16_t>> info_views(corrupted.begin(), corrupted.end());
  std::vector<size_t> red_indices(redundancy);
  for (size_t r = 0; r < redundancy; ++r) {
    red_indices[r] = r;
  }
  std::vector<std::span<const uint16_t>> red_const(red.begin(), red.end());
  ASSERT_TRUE(codec.RecoverInfo(info_views, missing, red_indices, red_const));
  for (size_t m : missing) {
    EXPECT_EQ(corrupted[m], shards[m]) << "shard " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, LargeGroupParam,
                         ::testing::Values(std::make_pair<size_t, size_t>(8, 2),
                                           std::make_pair<size_t, size_t>(104, 26),
                                           std::make_pair<size_t, size_t>(500, 40),
                                           std::make_pair<size_t, size_t>(3456, 26)));

TEST(LargeGroupCodec, InsufficientRedundancyFails) {
  LargeGroupCodec codec(8, 2);
  std::vector<std::vector<uint16_t>> shards(8, std::vector<uint16_t>(4, 1));
  std::vector<std::span<uint16_t>> views(shards.begin(), shards.end());
  std::vector<size_t> missing = {0, 1, 2};  // 3 missing, only 2 redundancy
  std::vector<size_t> red_idx = {0, 1};
  std::vector<std::vector<uint16_t>> red(2, std::vector<uint16_t>(4, 0));
  std::vector<std::span<const uint16_t>> red_views(red.begin(), red.end());
  EXPECT_FALSE(codec.RecoverInfo(views, missing, red_idx, red_views));
}

TEST(LargeGroupCodec, SupportsGroupsBeyond256) {
  // The GF(2^8) codec cannot exceed 256 shards; this one must.
  EXPECT_NO_THROW(LargeGroupCodec(20000, 2000));
  EXPECT_THROW(LargeGroupCodec(65000, 2000), std::invalid_argument);
}

// ---------- Data pipeline (write -> verify -> read) ----------

class DataPipelineTest : public ::testing::Test {
 protected:
  static const DataPlane& Plane() {
    static const DataPlane plane{DataPlaneConfig{}};
    return plane;
  }

  static std::vector<FileData> SomeFiles(Rng& rng, int count, size_t bytes_each) {
    std::vector<FileData> files;
    for (int i = 0; i < count; ++i) {
      FileData f;
      f.file_id = static_cast<uint64_t>(i + 1);
      f.name = "file-" + std::to_string(i);
      f.bytes.resize(bytes_each);
      for (auto& b : f.bytes) {
        b = static_cast<uint8_t>(rng.UniformInt(0, 255));
      }
      files.push_back(std::move(f));
    }
    return files;
  }
};

TEST_F(DataPipelineTest, WriteVerifyReadRoundTrip) {
  Rng rng(11);
  const auto files = SomeFiles(rng, 5, 3000);
  PlatterWriter writer(Plane());
  const auto written = writer.WritePlatter(77, files, rng);

  EXPECT_TRUE(written.platter.sealed());
  EXPECT_EQ(written.platter.header().files.size(), 5u);

  PlatterVerifier verifier(Plane());
  const auto report = verifier.Verify(written.platter, rng);
  EXPECT_TRUE(report.durable);
  EXPECT_GT(report.sectors_total, 0u);

  PlatterReader reader(Plane());
  for (size_t i = 0; i < files.size(); ++i) {
    ReadStats stats;
    const auto data = reader.ReadFile(written.platter,
                                      written.platter.header().files[i], rng, &stats);
    ASSERT_TRUE(data.has_value()) << "file " << i;
    EXPECT_EQ(*data, files[i].bytes);
  }
}

TEST_F(DataPipelineTest, HeaderSurvivesSerialization) {
  Rng rng(12);
  const auto files = SomeFiles(rng, 3, 500);
  PlatterWriter writer(Plane());
  const auto written = writer.WritePlatter(5, files, rng);
  const auto bytes = written.platter.header().Serialize();
  const auto parsed = PlatterHeader::Parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->files.size(), 3u);
  EXPECT_EQ(parsed->files[1].name, "file-1");
}

TEST_F(DataPipelineTest, ReadFileRejectsEntriesPastInformationArea) {
  // Serpentine indices past the information tracks address large-group
  // redundancy; an entry reaching there must throw, not return parity bytes.
  Rng rng(15);
  const auto written = PlatterWriter(Plane()).WritePlatter(3, SomeFiles(rng, 1, 100), rng);
  const MediaGeometry& g = Plane().geometry();
  const uint64_t capacity = static_cast<uint64_t>(g.info_tracks_per_platter) *
                            static_cast<uint64_t>(g.info_sectors_per_track);
  const uint64_t payload = Plane().sector_payload_bytes();
  PlatterReader reader(Plane());

  // The last information sector is still file data (unused, so zeros).
  const PlatterFileEntry last{.file_id = 8, .name = "last",
                              .start_sector_index = capacity - 1, .size_bytes = 100};
  const auto data = reader.ReadFile(written.platter, last, rng);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(*data, std::vector<uint8_t>(100, 0));

  const PlatterFileEntry past[] = {
      {.file_id = 9, .name = "past", .start_sector_index = capacity, .size_bytes = 1000},
      {.file_id = 10, .name = "spill", .start_sector_index = capacity - 1,
       .size_bytes = payload + 1},
      {.file_id = 11, .name = "huge", .start_sector_index = 0,
       .size_bytes = std::numeric_limits<uint64_t>::max()},
      {.file_id = 12, .name = "far", .start_sector_index =
           std::numeric_limits<uint64_t>::max(), .size_bytes = 1},
  };
  for (const auto& entry : past) {
    EXPECT_THROW(reader.ReadFile(written.platter, entry, rng), std::out_of_range)
        << entry.name;
  }
}

TEST_F(DataPipelineTest, WithinTrackNcRecoversInjectedSectorLoss) {
  // Crank the write channel so whole bursts of voxels vanish in some sectors:
  // LDPC fails there and within-track NC must recover.
  DataPlaneConfig config;
  config.write_channel.burst_miss_prob = 1e-5;  // ~2% of sectors lose a burst
  config.write_channel.burst_length = 800;      // ~40% of a 2048-voxel sector
  const DataPlane plane(config);
  Rng rng(13);
  PlatterWriter writer(plane);
  std::vector<FileData> files;
  files.push_back(
      {.file_id = 1, .name = "f", .bytes = std::vector<uint8_t>(200000, 0xAB)});
  const auto written = writer.WritePlatter(9, files, rng);

  PlatterReader reader(plane);
  ReadStats stats;
  const auto data =
      reader.ReadFile(written.platter, written.platter.header().files[0], rng, &stats);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(*data, files[0].bytes);
  // The injected bursts must actually have exercised the NC layer.
  EXPECT_GT(stats.ldpc_failures + stats.track_nc_recoveries +
                stats.large_nc_recoveries,
            0u);
}

TEST_F(DataPipelineTest, CrossPlatterRecovery) {
  // Small set for test speed: 4 information + 2 redundancy platters.
  DataPlaneConfig config;
  const DataPlane plane(config);
  Rng rng(14);
  PlatterWriter writer(plane);
  const PlatterSetConfig set{4, 2};
  PlatterSetCodec set_codec(plane, set);

  std::vector<WrittenPlatter> info;
  for (int p = 0; p < set.info; ++p) {
    std::vector<FileData> files;
    files.push_back({.file_id = static_cast<uint64_t>(p),
                     .name = "p" + std::to_string(p),
                     .bytes = std::vector<uint8_t>(10000,
                                                   static_cast<uint8_t>(p + 1))});
    info.push_back(writer.WritePlatter(static_cast<uint64_t>(p), files, rng));
  }
  std::vector<const WrittenPlatter*> info_ptrs;
  for (const auto& w : info) {
    info_ptrs.push_back(&w);
  }
  const auto redundancy = set_codec.EncodeRedundancyPlatters(info_ptrs, 100, rng);
  ASSERT_EQ(redundancy.size(), 2u);

  // Platter 2 becomes unavailable; recover its track 0 from the others.
  std::vector<const GlassPlatter*> avail_info;
  std::vector<size_t> avail_info_idx;
  for (size_t p = 0; p < info.size(); ++p) {
    if (p != 2) {
      avail_info.push_back(&info[p].platter);
      avail_info_idx.push_back(p);
    }
  }
  std::vector<const GlassPlatter*> avail_red = {&redundancy[0].platter,
                                                &redundancy[1].platter};
  std::vector<size_t> avail_red_idx = {0, 1};

  const auto recovered = set_codec.RecoverTrack(avail_info, avail_info_idx,
                                                avail_red, avail_red_idx,
                                                /*missing_info_index=*/2,
                                                /*track=*/0, rng);
  ASSERT_TRUE(recovered.has_value());
  ASSERT_EQ(recovered->size(),
            static_cast<size_t>(plane.geometry().sectors_per_track()));
  for (size_t s = 0; s < recovered->size(); ++s) {
    EXPECT_EQ((*recovered)[s], info[2].payloads[0][s]) << "sector " << s;
  }
}

TEST_F(DataPipelineTest, CrossPlatterSurvivesTwoMissingPlatters) {
  // A 4+2 set tolerates two unavailable platters: recovery of one missing
  // platter's track must succeed even when a second platter is also gone.
  DataPlaneConfig config;
  const DataPlane plane(config);
  Rng rng(24);
  PlatterWriter writer(plane);
  const PlatterSetConfig set{4, 2};
  PlatterSetCodec set_codec(plane, set);

  std::vector<WrittenPlatter> info;
  for (int p = 0; p < set.info; ++p) {
    std::vector<FileData> files;
    files.push_back({.file_id = static_cast<uint64_t>(p),
                     .name = "p" + std::to_string(p),
                     .bytes = std::vector<uint8_t>(
                         5000, static_cast<uint8_t>(0x30 + p))});
    info.push_back(writer.WritePlatter(static_cast<uint64_t>(p), files, rng));
  }
  std::vector<const WrittenPlatter*> info_ptrs;
  for (const auto& w : info) {
    info_ptrs.push_back(&w);
  }
  const auto redundancy = set_codec.EncodeRedundancyPlatters(info_ptrs, 100, rng);

  // Platters 1 and 3 both unavailable; recover platter 3's track 0 from the
  // two surviving info platters plus both redundancy platters.
  std::vector<const GlassPlatter*> avail_info = {&info[0].platter,
                                                 &info[2].platter};
  std::vector<size_t> avail_info_idx = {0, 2};
  std::vector<const GlassPlatter*> avail_red = {&redundancy[0].platter,
                                                &redundancy[1].platter};
  std::vector<size_t> avail_red_idx = {0, 1};

  const auto recovered = set_codec.RecoverTrack(avail_info, avail_info_idx,
                                                avail_red, avail_red_idx,
                                                /*missing_info_index=*/3,
                                                /*track=*/0, rng);
  ASSERT_TRUE(recovered.has_value());
  for (size_t s = 0; s < recovered->size(); ++s) {
    EXPECT_EQ((*recovered)[s], info[3].payloads[0][s]) << "sector " << s;
  }
}

TEST_F(DataPipelineTest, CrossPlatterFailsBeyondRedundancy) {
  // Three of four information platters missing with only two redundancy
  // platters: the set is lost and recovery must say so (not fabricate data).
  DataPlaneConfig config;
  const DataPlane plane(config);
  Rng rng(25);
  PlatterWriter writer(plane);
  const PlatterSetConfig set{4, 2};
  PlatterSetCodec set_codec(plane, set);

  std::vector<WrittenPlatter> info;
  for (int p = 0; p < set.info; ++p) {
    info.push_back(writer.WritePlatter(static_cast<uint64_t>(p), {}, rng));
  }
  std::vector<const WrittenPlatter*> info_ptrs;
  for (const auto& w : info) {
    info_ptrs.push_back(&w);
  }
  const auto redundancy = set_codec.EncodeRedundancyPlatters(info_ptrs, 100, rng);

  std::vector<const GlassPlatter*> avail_info = {&info[0].platter};
  std::vector<size_t> avail_info_idx = {0};
  std::vector<const GlassPlatter*> avail_red = {&redundancy[0].platter,
                                                &redundancy[1].platter};
  std::vector<size_t> avail_red_idx = {0, 1};
  EXPECT_FALSE(set_codec.RecoverTrack(avail_info, avail_info_idx, avail_red,
                                      avail_red_idx, 3, 0, rng)
                   .has_value());
}

// Expects RecoverTrack to throw std::invalid_argument naming `argument`. It
// checks its arguments before it reads any glass, so blank platters stand in
// for a 4+2 set's members.
void ExpectRecoverTrackRejects(const DataPlane& plane,
                               const std::vector<size_t>& info_indices,
                               const std::vector<size_t>& redundancy_indices,
                               size_t missing_info_index, size_t info_platters,
                               const std::string& argument) {
  const GlassPlatter blank(plane.geometry(), 1);
  const std::vector<const GlassPlatter*> info(info_platters, &blank);
  const std::vector<const GlassPlatter*> redundancy(2, &blank);
  const PlatterSetCodec codec(plane, {.info = 4, .redundancy = 2});
  Rng rng(1);
  try {
    codec.RecoverTrack(info, info_indices, redundancy, redundancy_indices,
                       missing_info_index, 0, rng);
    ADD_FAILURE() << "accepted a bad " << argument;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(argument), std::string::npos) << e.what();
  }
}

TEST_F(DataPipelineTest, RecoverTrackRejectsIndexVectorSizeMismatch) {
  ExpectRecoverTrackRejects(Plane(), {0, 1}, {0, 1}, 3, 3,
                            "available_info and available_info_indices differ in size");
  ExpectRecoverTrackRejects(
      Plane(), {0, 1, 2}, {0}, 3, 3,
      "available_redundancy and available_redundancy_indices differ in size");
}

TEST_F(DataPipelineTest, RecoverTrackRejectsInfoIndexOutOfSet) {
  ExpectRecoverTrackRejects(Plane(), {0, 1, 4}, {0, 1}, 3, 3,
                            "available_info_indices entry >= set.info");
}

TEST_F(DataPipelineTest, RecoverTrackRejectsRedundancyIndexOutOfSet) {
  ExpectRecoverTrackRejects(Plane(), {0, 1, 2}, {0, 2}, 3, 3,
                            "available_redundancy_indices entry >= set.redundancy");
}

TEST_F(DataPipelineTest, RecoverTrackRejectsMissingIndexOutOfSet) {
  ExpectRecoverTrackRejects(Plane(), {0, 1, 2}, {0, 1}, 4, 3,
                            "missing_info_index >= set.info");
}

TEST_F(DataPipelineTest, OverfullPlatterRejected) {
  Rng rng(15);
  PlatterWriter writer(Plane());
  std::vector<FileData> files;
  files.push_back({.file_id = 1,
                   .name = "huge",
                   .bytes = std::vector<uint8_t>(
                       Plane().geometry().payload_bytes_per_platter() + 1, 0)});
  EXPECT_THROW(writer.WritePlatter(1, files, rng), std::invalid_argument);
}

TEST_F(DataPipelineTest, VerifyReportsInjectedUnrecoverableLoss) {
  // Destroy more sectors per track than all NC layers can absorb.
  DataPlaneConfig config;
  config.write_channel.voxel_miss_prob = 0.6;  // most voxels missing everywhere
  const DataPlane plane(config);
  Rng rng(16);
  PlatterWriter writer(plane);
  std::vector<FileData> files;
  files.push_back({.file_id = 1, .name = "f", .bytes = std::vector<uint8_t>(1000, 1)});
  const auto written = writer.WritePlatter(3, files, rng);
  PlatterVerifier verifier(plane);
  const auto report = verifier.Verify(written.platter, rng);
  EXPECT_FALSE(report.durable);
  EXPECT_GT(report.unrecoverable_sectors, 0u);
  // "It can simply be kept in staging and rewritten onto a different platter":
  // durable == false is the signal for that path.
}

}  // namespace
}  // namespace silica
