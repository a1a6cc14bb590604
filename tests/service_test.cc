#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/silica_service.h"
#include "telemetry/telemetry.h"

namespace silica {
namespace {

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> data(n);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  return data;
}

class ServiceTest : public ::testing::Test {
 protected:
  ServiceConfig Config() {
    ServiceConfig config;
    config.platter_set = PlatterSetConfig{4, 2};
    config.seed = 99;
    return config;
  }
};

TEST_F(ServiceTest, PutFlushGetRoundTrip) {
  SilicaService service(Config());
  Rng rng(1);
  const auto a = RandomBytes(rng, 5000);
  const auto b = RandomBytes(rng, 100);
  service.Put("acct1/a", 1, a);
  service.Put("acct1/b", 1, b);

  const auto report = service.Flush();
  EXPECT_EQ(report.files_committed, 2u);
  EXPECT_EQ(report.files_kept_in_staging, 0u);
  EXPECT_GE(report.platters_written, 1u);
  EXPECT_EQ(report.redundancy_platters_written, 2u);  // one completed 4+2 set

  EXPECT_EQ(service.Get("acct1/a"), a);
  EXPECT_EQ(service.Get("acct1/b"), b);
  EXPECT_FALSE(service.Get("missing").has_value());
}

TEST_F(ServiceTest, OverwriteAndDelete) {
  SilicaService service(Config());
  Rng rng(2);
  const auto v1 = RandomBytes(rng, 800);
  const auto v2 = RandomBytes(rng, 900);
  service.Put("f", 1, v1);
  service.Flush();
  service.Put("f", 1, v2);  // logical overwrite: WORM media, new version
  service.Flush();
  EXPECT_EQ(service.Get("f"), v2);

  EXPECT_TRUE(service.Delete("f"));  // crypto-shredding
  EXPECT_FALSE(service.Get("f").has_value());
}

TEST_F(ServiceTest, UnavailablePlatterRecoversThroughSet) {
  SilicaService service(Config());
  Rng rng(3);
  // Enough files to fill several platters so the set has real content.
  std::vector<std::pair<std::string, std::vector<uint8_t>>> files;
  for (int i = 0; i < 8; ++i) {
    files.emplace_back("acct/f" + std::to_string(i), RandomBytes(rng, 40000));
    service.Put(files.back().first, 7, files.back().second);
  }
  service.Flush();

  // Fail the platter holding f0 and read through cross-platter recovery.
  const auto version = service.metadata().Lookup("acct/f0");
  ASSERT_TRUE(version.has_value());
  ASSERT_TRUE(service.MarkUnavailable(version->platter_id));

  const auto recovered = service.Get("acct/f0");
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, files[0].second);

  // Restoring availability goes back to the direct path.
  service.MarkAvailable(version->platter_id);
  EXPECT_EQ(service.Get("acct/f0"), files[0].second);
}

TEST_F(ServiceTest, BatchGetReadsEachFileAndTrackOnce) {
  SilicaService service(Config());
  Telemetry telemetry;
  service.SetTelemetry(&telemetry);
  Rng rng(7);
  // Account 1 fills more than one platter; account 2's two small files land
  // next to each other after it.
  for (int i = 0; i < 8; ++i) {
    service.Put("big/" + std::to_string(i), 1, RandomBytes(rng, 40000));
  }
  service.Put("small/a", 2, RandomBytes(rng, 300));
  service.Put("small/b", 2, RandomBytes(rng, 300));
  service.Flush();

  const MediaGeometry& g = service.data_plane().geometry();
  const auto track_of = [&](const std::string& name) {
    return SerpentineSectorAddress(g, service.metadata().Lookup(name)->start_sector_index)
        .track;
  };
  const uint64_t degraded_platter = service.metadata().Lookup("small/a")->platter_id;
  ASSERT_EQ(service.metadata().Lookup("small/b")->platter_id, degraded_platter);
  ASSERT_EQ(track_of("small/a"), track_of("small/b"));
  std::vector<std::string> plain;
  for (int i = 0; i < 8 && plain.size() < 2; ++i) {
    const std::string name = "big/" + std::to_string(i);
    if (service.metadata().Lookup(name)->platter_id != degraded_platter) {
      plain.push_back(name);
    }
  }
  ASSERT_EQ(plain.size(), 2u);
  ASSERT_TRUE(service.MarkUnavailable(degraded_platter));

  const std::vector<std::string> names = {plain[0], "small/a", plain[1], plain[0],
                                          "small/b",  "small/a", "missing"};
  const Counter& sectors_read = telemetry.metrics.GetCounter("decode_sectors_read_total");
  const Counter& set_recoveries =
      telemetry.metrics.GetCounter("decode_platter_set_recoveries_total");
  const double sectors_before = sectors_read.value();
  const double set_before = set_recoveries.value();
  const auto result = service.BatchGet(names);

  // One track rebuilt for both degraded files; each distinct plain file's
  // sectors decoded once (pristine glass needs no recovery).
  EXPECT_EQ(set_recoveries.value() - set_before, g.sectors_per_track());
  const uint64_t payload_bytes = service.data_plane().sector_payload_bytes();
  const uint64_t plain_sectors = 2 * ((40000 + payload_bytes - 1) / payload_bytes);
  EXPECT_EQ(sectors_read.value() - sectors_before, static_cast<double>(plain_sectors));
  EXPECT_EQ(result.platter_mounts, 2u + (service.metadata().Lookup(plain[0])->platter_id !=
                                         service.metadata().Lookup(plain[1])->platter_id));
  EXPECT_EQ(result.recovery_reads, 3u);
  ASSERT_EQ(result.files.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(result.files[i], service.Get(names[i])) << names[i];
  }
  EXPECT_TRUE(result.files[1].has_value());
  EXPECT_FALSE(result.files.back().has_value());
}

TEST_F(ServiceTest, MetadataRebuildFromPlatterScan) {
  SilicaService service(Config());
  Rng rng(4);
  service.Put("x/1", 1, RandomBytes(rng, 500));
  service.Put("x/2", 1, RandomBytes(rng, 700));
  service.Flush();

  const auto rebuilt = service.ScanAndRebuildIndex();
  EXPECT_EQ(rebuilt.live_files(), 2u);
  const auto entry = rebuilt.Lookup("x/2");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->bytes, 700u);
}

TEST_F(ServiceTest, EmptyFlushIsNoop) {
  SilicaService service(Config());
  const auto report = service.Flush();
  EXPECT_EQ(report.platters_written, 0u);
  EXPECT_EQ(report.files_committed, 0u);
}

TEST_F(ServiceTest, OversizedPutRejected) {
  SilicaService service(Config());
  const auto capacity =
      service.data_plane().geometry().payload_bytes_per_platter();
  EXPECT_THROW(service.Put("big", 1, std::vector<uint8_t>(capacity + 1, 0)),
               std::invalid_argument);
}

TEST_F(ServiceTest, ConfigValidationRejectsBadShapes) {
  auto config = Config();
  config.threads = 0;
  EXPECT_THROW(SilicaService{config}, std::invalid_argument);

  config = Config();
  config.platter_set.info = 0;
  EXPECT_THROW(SilicaService{config}, std::invalid_argument);

  config = Config();
  config.platter_set.redundancy = -1;
  EXPECT_THROW(SilicaService{config}, std::invalid_argument);

  // The message names the offending field, not just "bad config".
  config = Config();
  config.threads = -3;
  try {
    SilicaService service(config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("threads"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos);
  }
}

TEST_F(ServiceTest, DeleteBumpsShredCounter) {
  SilicaService service(Config());
  Telemetry telemetry;
  service.SetTelemetry(&telemetry);
  Rng rng(5);
  service.Put("shred/a", 1, RandomBytes(rng, 400));
  service.Put("shred/b", 1, RandomBytes(rng, 400));
  service.Flush();

  const auto& shredded =
      telemetry.metrics.GetCounter("service_files_shredded_total");
  EXPECT_EQ(shredded.value(), 0.0);
  EXPECT_TRUE(service.Delete("shred/a"));
  EXPECT_EQ(shredded.value(), 1.0);
  EXPECT_FALSE(service.Delete("shred/a"));  // already gone: no double count
  EXPECT_FALSE(service.Delete("never-existed"));
  EXPECT_EQ(shredded.value(), 1.0);
  EXPECT_TRUE(service.Delete("shred/b"));
  EXPECT_EQ(shredded.value(), 2.0);
}

TEST_F(ServiceTest, ScrubAndRepairDoNotResurrectDeletedFile) {
  SilicaService service(Config());
  Rng rng(6);
  const auto kept = RandomBytes(rng, 1200);
  service.Put("reg/gone", 3, RandomBytes(rng, 1200));
  service.Put("reg/kept", 3, kept);
  service.Flush();

  const auto version = service.metadata().Lookup("reg/gone");
  ASSERT_TRUE(version.has_value());
  const uint64_t platter = version->platter_id;
  ASSERT_TRUE(service.Delete("reg/gone"));

  // Age the platter, then run the background scrub/repair ladder over it. A
  // repair rewrites payload sectors from redundancy — it must not bring the
  // crypto-shredded name back to life in metadata or through Get.
  const auto struck = service.AgePlatter(platter, /*years=*/3.0);
  ASSERT_TRUE(struck.has_value());
  const auto scrub = service.ScrubPlatter(platter);
  ASSERT_TRUE(scrub.has_value());

  EXPECT_FALSE(service.metadata().Lookup("reg/gone").has_value());
  EXPECT_FALSE(service.Get("reg/gone").has_value());
  // The surviving neighbor on the same platter is still intact and readable.
  if (!scrub->data_lost) {
    EXPECT_EQ(service.Get("reg/kept"), kept);
  }

  // Deleting again after the scrub still reports not-found: the repair did not
  // re-register the name anywhere the delete path can see.
  EXPECT_FALSE(service.Delete("reg/gone"));
}

}  // namespace
}  // namespace silica
