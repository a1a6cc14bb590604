#include <gtest/gtest.h>

#include "common/crc.h"
#include "media/geometry.h"
#include "media/platter.h"

namespace silica {
namespace {

TEST(Geometry, ProductionScaleMatchesPaperNumbers) {
  const auto g = MediaGeometry::ProductionScale();
  // Section 3: a sector contains over 100,000 voxels and upwards of 100 kB of data.
  EXPECT_GT(g.voxels_per_sector(), 100000);
  EXPECT_GT(g.payload_bytes_per_sector(), 100000);
  // Section 5/6: within-track overhead ~8%, large-group ~2%.
  EXPECT_NEAR(g.track_redundancy_overhead(), 0.08, 0.005);
  EXPECT_NEAR(g.large_group_overhead(), 0.02, 0.005);
  // Section 3: multiple TBs of user data per platter.
  EXPECT_GT(g.payload_bytes_per_platter(), 2ull * 1000 * 1000 * 1000 * 1000);
}

TEST(Geometry, DataPlaneScaleKeepsOverheadShape) {
  const auto g = MediaGeometry::DataPlaneScale();
  EXPECT_NEAR(g.track_redundancy_overhead(), 0.08, 0.01);
  EXPECT_GT(g.payload_bytes_per_sector(), 0);
  EXPECT_EQ(g.tracks_per_platter(),
            g.info_tracks_per_platter + g.large_group_redundancy_total());
}

TEST(Geometry, SerpentineRoundTrip) {
  const auto g = MediaGeometry::DataPlaneScale();
  const uint64_t total = static_cast<uint64_t>(g.info_tracks_per_platter) *
                         static_cast<uint64_t>(g.info_sectors_per_track);
  for (uint64_t i = 0; i < total; ++i) {
    const auto addr = SerpentineSectorAddress(g, i);
    EXPECT_EQ(SerpentineSectorIndex(g, addr), i);
  }
}

TEST(Geometry, SerpentineAdjacentAcrossTrackBoundary) {
  const auto g = MediaGeometry::DataPlaneScale();
  const auto last_of_track0 =
      SerpentineSectorAddress(g, static_cast<uint64_t>(g.info_sectors_per_track) - 1);
  const auto first_of_track1 =
      SerpentineSectorAddress(g, static_cast<uint64_t>(g.info_sectors_per_track));
  // Serpentine order: the fill position does not jump across the platter when the
  // track boundary is crossed — the sector index stays put while the track advances.
  EXPECT_EQ(last_of_track0.track + 1, first_of_track1.track);
  EXPECT_EQ(last_of_track0.sector, first_of_track1.sector);
}

TEST(PlatterHeader, SerializeParseRoundTrip) {
  PlatterHeader header;
  header.platter_id = 77;
  header.files = {
      {.file_id = 1, .name = "blob/a", .start_sector_index = 0, .size_bytes = 123},
      {.file_id = 2, .name = "blob/b", .start_sector_index = 9, .size_bytes = 4096},
  };
  const auto bytes = header.Serialize();
  const auto parsed = PlatterHeader::Parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->platter_id, 77u);
  EXPECT_EQ(parsed->files, header.files);
}

TEST(PlatterHeader, CorruptionDetected) {
  PlatterHeader header;
  header.platter_id = 5;
  header.files = {{.file_id = 1, .name = "x", .start_sector_index = 0, .size_bytes = 1}};
  auto bytes = header.Serialize();
  bytes[bytes.size() / 2] ^= 0xFF;
  EXPECT_FALSE(PlatterHeader::Parse(bytes).has_value());
}

TEST(PlatterHeader, TruncationDetected) {
  PlatterHeader header;
  header.platter_id = 5;
  auto bytes = header.Serialize();
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(PlatterHeader::Parse(bytes).has_value());
}

TEST(PlatterHeader, ImplausibleFileCountRejected) {
  // A well-formed, CRC-valid 16-byte body claiming 2^40 entries: no entry fits,
  // so Parse must reject it rather than try to reserve the count.
  auto append_u64 = [](std::vector<uint8_t>& out, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  std::vector<uint8_t> body;
  append_u64(body, 5);                  // platter_id
  append_u64(body, uint64_t{1} << 40);  // file_count
  std::vector<uint8_t> bytes;
  append_u64(bytes, body.size());
  bytes.insert(bytes.end(), body.begin(), body.end());
  append_u64(bytes, Crc64(body));
  EXPECT_FALSE(PlatterHeader::Parse(bytes).has_value());
}

class GlassPlatterTest : public ::testing::Test {
 protected:
  MediaGeometry geometry_ = MediaGeometry::DataPlaneScale();
  GlassPlatter platter_{geometry_, 42};

  std::vector<uint16_t> SomeSymbols() {
    return std::vector<uint16_t>(
        static_cast<size_t>(geometry_.voxels_per_sector()), 3);
  }
};

TEST_F(GlassPlatterTest, WriteReadBack) {
  const SectorAddress addr{.track = 1, .sector = 2};
  auto symbols = SomeSymbols();
  symbols[5] = 7;
  platter_.WriteSector(addr, symbols);
  EXPECT_TRUE(platter_.IsWritten(addr));
  EXPECT_EQ(platter_.SectorSymbols(addr)[5], 7);
}

TEST_F(GlassPlatterTest, WormRejectsRewrite) {
  const SectorAddress addr{.track = 0, .sector = 0};
  platter_.WriteSector(addr, SomeSymbols());
  EXPECT_THROW(platter_.WriteSector(addr, SomeSymbols()), std::logic_error);
}

TEST_F(GlassPlatterTest, SealEnforcesAirGap) {
  platter_.Seal();
  EXPECT_THROW(platter_.WriteSector({.track = 0, .sector = 0}, SomeSymbols()),
               std::logic_error);
  EXPECT_THROW(platter_.SetHeader({}), std::logic_error);
}

TEST_F(GlassPlatterTest, ReadingUnwrittenSectorThrows) {
  EXPECT_THROW(platter_.SectorSymbols({.track = 0, .sector = 1}), std::logic_error);
}

TEST_F(GlassPlatterTest, OutOfRangeAddressThrows) {
  EXPECT_THROW(platter_.IsWritten({.track = geometry_.tracks_per_platter(), .sector = 0}),
               std::out_of_range);
  EXPECT_THROW(platter_.IsWritten({.track = -1, .sector = 0}), std::out_of_range);
}

TEST_F(GlassPlatterTest, FillFraction) {
  EXPECT_DOUBLE_EQ(platter_.FillFraction(), 0.0);
  platter_.WriteSector({.track = 0, .sector = 0}, SomeSymbols());
  EXPECT_GT(platter_.FillFraction(), 0.0);
  EXPECT_LT(platter_.FillFraction(), 1.0);
}

TEST_F(GlassPlatterTest, WrongVoxelCountRejected) {
  std::vector<uint16_t> short_symbols(10, 0);
  EXPECT_THROW(platter_.WriteSector({.track = 0, .sector = 0}, short_symbols),
               std::invalid_argument);
}

}  // namespace
}  // namespace silica
