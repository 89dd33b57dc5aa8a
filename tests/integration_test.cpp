// Cross-substrate integration tests: full jobs through stacked storage
// (RAID-0 over throttled members, HDFS-sim), multi-file chunking into the
// runtime, fault injection through complete jobs, and conservation
// invariants across every execution mode.
#include <gtest/gtest.h>

#include <cstring>

#include "apps/grep.hpp"
#include "apps/tera_sort.hpp"
#include "apps/word_count.hpp"
#include "core/job.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/fault_device.hpp"
#include "storage/hdfs_sim.hpp"
#include "storage/mem_device.hpp"
#include "storage/raid0_device.hpp"
#include "storage/rate_limiter.hpp"
#include "storage/throttled_device.hpp"
#include "wload/teragen.hpp"
#include "wload/text_corpus.hpp"

namespace supmr {
namespace {

using ingest::CrlfFormat;
using ingest::LineFormat;
using ingest::SingleDeviceSource;
using storage::MemDevice;

core::JobConfig small_config() {
  core::JobConfig cfg;
  cfg.num_map_threads = 4;
  cfg.num_reduce_threads = 2;
  return cfg;
}

// Builds a RAID-0 of `members` throttled in-memory stripes of `flat`.
std::shared_ptr<const storage::Device> make_raid(const std::string& flat,
                                                 std::size_t members,
                                                 std::uint64_t stripe,
                                                 double per_member_bps) {
  std::vector<std::string> member_data(members);
  for (std::size_t i = 0; i < flat.size(); ++i)
    member_data[(i / stripe) % members].push_back(flat[i]);
  std::vector<std::shared_ptr<const storage::Device>> devices;
  for (auto& md : member_data) {
    auto base = std::make_shared<MemDevice>(std::move(md), "member");
    auto limiter = std::make_shared<storage::RateLimiter>(per_member_bps);
    devices.push_back(
        std::make_shared<storage::ThrottledDevice>(base, limiter));
  }
  return std::make_shared<storage::Raid0Device>(devices, stripe);
}

TEST(Integration, TeraSortOverThrottledRaid0) {
  wload::TeraGenConfig cfg;
  cfg.num_records = 30000;  // 3 MB; stripe rows: 3 x 10 KB = 300 records
  const std::string flat = wload::teragen_to_string(cfg);
  auto raid = make_raid(flat, 3, 10000, 40.0e6);
  ASSERT_EQ(raid->size(), flat.size());

  apps::TeraSortApp app;
  SingleDeviceSource src(raid, std::make_shared<CrlfFormat>(), 500000);
  core::MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kIngestMR);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->result_count, cfg.num_records);
  EXPECT_EQ(app.malformed_records(), 0u);
  // Sorted and complete.
  const auto& sorted = app.sorted_data();
  ASSERT_EQ(sorted.size(), flat.size());
  for (std::uint64_t r = 1; r < cfg.num_records; ++r) {
    ASSERT_LE(std::memcmp(sorted.data() + (r - 1) * 100,
                          sorted.data() + r * 100, 10),
              0);
  }
}

TEST(Integration, WordCountFromHdfsSimMatchesLocal) {
  wload::TextCorpusConfig tc;
  tc.total_bytes = 96 * 1024;
  const std::string corpus = wload::generate_text(tc);

  storage::HdfsConfig hc;
  hc.num_nodes = 4;
  hc.block_bytes = 8 * 1024;
  hc.link_bps = 500.0e6;
  hc.per_node_bps = 500.0e6;
  storage::HdfsSimStore store(hc);
  store.put("/corpus", corpus);
  auto remote = store.open("/corpus");
  ASSERT_TRUE(remote.ok());

  apps::WordCountApp remote_app, local_app;
  std::shared_ptr<const storage::Device> remote_dev = std::move(*remote);
  SingleDeviceSource remote_src(remote_dev, std::make_shared<LineFormat>(),
                                16 * 1024);
  core::MapReduceJob remote_job(remote_app, remote_src, small_config());
  ASSERT_TRUE(remote_job.run(core::ExecMode::kIngestMR).ok());

  SingleDeviceSource local_src(std::make_shared<MemDevice>(corpus, "l"),
                               std::make_shared<LineFormat>(), 16 * 1024);
  core::MapReduceJob local_job(local_app, local_src, small_config());
  ASSERT_TRUE(local_job.run(core::ExecMode::kIngestMR).ok());

  EXPECT_EQ(remote_app.results(), local_app.results());
}

TEST(Integration, MultiFileChunksFromHdfsFiles) {
  // Many small files on the remote store, three files per chunk.
  storage::HdfsConfig hc;
  hc.num_nodes = 3;
  hc.block_bytes = 4096;
  hc.link_bps = 1e9;
  hc.per_node_bps = 1e9;
  storage::HdfsSimStore store(hc);
  wload::TextCorpusConfig tc;
  tc.total_bytes = 4 * 1024;
  std::vector<std::shared_ptr<const storage::Device>> files;
  for (int i = 0; i < 10; ++i) {
    tc.seed = 100 + i;
    const std::string name = "/d/part-" + std::to_string(i);
    store.put(name, wload::generate_text(tc));
    auto dev = store.open(name);
    ASSERT_TRUE(dev.ok());
    files.push_back(std::shared_ptr<const storage::Device>(std::move(*dev)));
  }
  ingest::MultiFileSource src(files, 3);
  apps::WordCountApp app;
  core::MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kIngestMR);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_GT(result->chunks, 1u);
  EXPECT_GT(app.results().size(), 100u);
}

TEST(Integration, FaultMidJobSurfacesCleanly) {
  // Inject an I/O error into the middle of a chunked job: the job must
  // return the error (not hang, not crash) and the pipeline must shut down.
  wload::TextCorpusConfig tc;
  tc.total_bytes = 64 * 1024;
  MemDevice base(wload::generate_text(tc));
  auto plan = fault::FaultPlan::parse("permanent=40960-41984");
  ASSERT_TRUE(plan.ok());
  storage::FaultDevice fault(&base, *plan);
  auto dev = std::shared_ptr<const storage::Device>(
      &fault, [](const storage::Device*) {});

  apps::WordCountApp app;
  SingleDeviceSource src(dev, std::make_shared<LineFormat>(), 8 * 1024);
  core::MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kIngestMR);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(Integration, AllModesAgreeOnGrep) {
  // original vs chunked vs adaptive over the same throttle-free input.
  wload::TextCorpusConfig tc;
  tc.total_bytes = 48 * 1024;
  const std::string text = wload::generate_text(tc);
  const std::vector<std::string> patterns = {"ab", "the", "zz"};

  auto run_mode = [&](int mode) {
    apps::GrepApp app(patterns);
    auto dev = std::make_shared<MemDevice>(text, "g");
    SingleDeviceSource src(dev, std::make_shared<LineFormat>(),
                           mode == 0 ? 0 : 6000);
    core::MapReduceJob job(app, src, small_config());
    if (mode == 0) {
      EXPECT_TRUE(job.run(core::ExecMode::kOriginal).ok());
    } else if (mode == 1) {
      EXPECT_TRUE(job.run(core::ExecMode::kIngestMR).ok());
    } else {
      EXPECT_TRUE(job.run(core::ExecMode::kAdaptive).ok());
    }
    return app.results();
  };
  const auto original = run_mode(0);
  EXPECT_EQ(run_mode(1), original);
  EXPECT_EQ(run_mode(2), original);
}

TEST(Integration, PipelineStatsConservation) {
  // Bytes through the pipeline == source size; per-chunk stats sum to the
  // aggregate; combined phase bounded by total.
  wload::TextCorpusConfig tc;
  tc.total_bytes = 100 * 1024;
  const std::string text = wload::generate_text(tc);
  apps::WordCountApp app;
  SingleDeviceSource src(std::make_shared<MemDevice>(text, "c"),
                         std::make_shared<LineFormat>(), 9000);
  core::MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kIngestMR);
  ASSERT_TRUE(result.ok());
  const auto& p = result->pipeline;
  EXPECT_EQ(p.total_bytes, text.size());
  std::uint64_t chunk_bytes = 0;
  double ingest_sum = 0.0, process_sum = 0.0;
  for (const auto& c : p.chunks) {
    chunk_bytes += c.bytes;
    ingest_sum += c.ingest_s;
    process_sum += c.process_s;
  }
  EXPECT_EQ(chunk_bytes, text.size());
  EXPECT_NEAR(ingest_sum, p.ingest_busy_s, 1e-9);
  EXPECT_NEAR(process_sum, p.process_busy_s, 1e-9);
  EXPECT_LE(result->phases.readmap_s, result->phases.total_s + 1e-9);
  // Double-buffering bound: ingest+process overlap, so the pipeline wall
  // time never exceeds the sum of both sides (+ scheduling noise).
  EXPECT_LE(p.total_s, p.ingest_busy_s + p.process_busy_s +
                           p.consumer_wait_s + 0.5);
}

TEST(Integration, BackToBackJobsOnOneSource) {
  // A source must be reusable across jobs (planning is deterministic).
  wload::TeraGenConfig cfg;
  cfg.num_records = 2000;
  auto dev = std::make_shared<MemDevice>(wload::teragen_to_string(cfg), "t");
  SingleDeviceSource src(dev, std::make_shared<CrlfFormat>(), 37300);
  std::uint64_t checksum = 0;
  for (int run = 0; run < 2; ++run) {
    apps::TeraSortApp app;
    core::MapReduceJob job(app, src, small_config());
    auto result = job.run(core::ExecMode::kIngestMR);
    ASSERT_TRUE(result.ok());
    if (run == 0) {
      checksum = app.key_checksum();
    } else {
      EXPECT_EQ(app.key_checksum(), checksum);
    }
  }
}

}  // namespace
}  // namespace supmr
