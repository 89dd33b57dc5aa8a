// Empty-input / zero-chunk regression suite.
//
// A 0-byte source is the degenerate plan every mode must survive: no chunk
// is ever produced, so the read/map/reduce/merge phases all run over
// nothing. The contract pinned here, for every ExecMode, in normal AND
// degrade mode:
//   * run() succeeds (empty input is not an error);
//   * num_chunks == 0 and chunks_skipped == 0 (nothing read, nothing
//     "recovered" — degrade mode must not count phantom chunks);
//   * the report is one valid JSON document (parse_json accepts it);
//   * the merge produces a sorted empty output (TeraSort's sorted_data()
//     is empty, word count's results() is empty) in every merge mode.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "apps/tera_sort.hpp"
#include "apps/word_count.hpp"
#include "cluster/cluster_job.hpp"
#include "common/json.hpp"
#include "core/job.hpp"
#include "core/replay.hpp"
#include "core/report.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/mem_device.hpp"
#include "storage/mmap_device.hpp"

namespace supmr {
namespace {

using core::ExecMode;
using core::JobConfig;
using core::MapReduceJob;
using core::MergeMode;

constexpr ExecMode kModes[] = {ExecMode::kOriginal, ExecMode::kIngestMR,
                               ExecMode::kAdaptive};
constexpr MergeMode kMergeModes[] = {MergeMode::kPairwise, MergeMode::kPWay};

JobConfig empty_config(MergeMode merge, bool degrade) {
  JobConfig jc;
  jc.num_map_threads = 2;
  jc.num_reduce_threads = 2;
  jc.merge_mode = merge;
  jc.degrade = degrade;
  return jc;
}

void check_empty_result(const core::JobResult& result, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(result.phases.num_chunks, 0u);
  EXPECT_EQ(result.chunks_skipped, 0u);
  EXPECT_FALSE(result.degraded());
  EXPECT_EQ(result.result_count, 0u);
  const std::string json = core::job_result_to_json(result);
  EXPECT_EQ(parse_json(json).status().message(), "") << json;
}

TEST(EmptyInput, WordCountAllModesAllMergesNormalAndDegrade) {
  for (ExecMode mode : kModes) {
    for (MergeMode merge : kMergeModes) {
      for (bool degrade : {false, true}) {
        for (core::IoMode io : {core::IoMode::kRead, core::IoMode::kMmap}) {
          apps::WordCountApp app;
          ingest::SingleDeviceSource src(
              std::make_shared<storage::MemDevice>("", "empty"),
              std::make_shared<ingest::LineFormat>(), /*chunk_bytes=*/6, io);
          MapReduceJob job(app, src, empty_config(merge, degrade));
          auto result = job.run(mode);
          ASSERT_TRUE(result.ok())
              << core::exec_mode_name(mode) << " degrade=" << degrade << " io="
              << core::io_mode_name(io) << ": " << result.status().to_string();
          const std::string label = std::string(core::exec_mode_name(mode)) +
                                    (degrade ? "/degrade" : "/normal") + "/" +
                                    std::string(core::io_mode_name(io));
          check_empty_result(*result, label.c_str());
          EXPECT_TRUE(app.results().empty());
        }
      }
    }
  }
}

// mmap(len=0) is EINVAL, so MmapDevice must special-case the empty file: a
// null mapping with size 0, read_at returning 0 bytes, view_at lending the
// empty span — and a whole job over it must behave exactly like the other
// empty-source cells above.
TEST(EmptyInput, MmapDeviceEmptyFile) {
  const std::string path =
      ::testing::TempDir() + "/supmr_empty_mmap_input.txt";
  { std::FILE* f = std::fopen(path.c_str(), "wb"); ASSERT_NE(f, nullptr);
    std::fclose(f); }

  auto dev = storage::MmapDevice::open(path);
  ASSERT_TRUE(dev.ok()) << dev.status().to_string();
  EXPECT_EQ((*dev)->size(), 0u);
  EXPECT_TRUE((*dev)->supports_views());
  EXPECT_TRUE((*dev)->view_at(0, 0).empty());
  char buf[4];
  auto n = (*dev)->read_at(0, std::span<char>(buf, sizeof(buf)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);

  apps::WordCountApp app;
  std::shared_ptr<const storage::Device> device = std::move(*dev);
  ingest::SingleDeviceSource src(device,
                                 std::make_shared<ingest::LineFormat>(),
                                 /*chunk_bytes=*/6, core::IoMode::kMmap);
  MapReduceJob job(app, src, empty_config(MergeMode::kPWay, false));
  auto result = job.run(ExecMode::kIngestMR);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  check_empty_result(*result, "mmap-empty-file");
  EXPECT_TRUE(app.results().empty());
  std::remove(path.c_str());
}

// Sorted-empty merge on TeraSort: the array container never claims a
// slot, and both merges must hand back an empty (trivially sorted) output.
TEST(EmptyInput, TeraSortAllModesAllMergesNormalAndDegrade) {
  for (ExecMode mode : kModes) {
    for (MergeMode merge : kMergeModes) {
      for (bool degrade : {false, true}) {
        apps::TeraSortApp app;
        ingest::SingleDeviceSource src(
            std::make_shared<storage::MemDevice>("", "empty"),
            std::make_shared<ingest::FixedFormat>(100),
            /*chunk_bytes=*/1000);
        MapReduceJob job(app, src, empty_config(merge, degrade));
        auto result = job.run(mode);
        const std::string label = std::string(core::exec_mode_name(mode)) +
                                  "/" +
                                  std::string(core::merge_mode_name(merge)) +
                                  (degrade ? "/degrade" : "/normal");
        ASSERT_TRUE(result.ok())
            << label << ": " << result.status().to_string();
        check_empty_result(*result, label.c_str());
        EXPECT_TRUE(app.sorted_data().empty()) << label;
        EXPECT_EQ(app.key_checksum(), 0u) << label;
      }
    }
  }
}

// Sharded shuffle over nothing: every node's slice is empty, so no map
// output exists, nothing is routed (locally or on the wire), no owner merge
// runs, and the reassembled cluster output is the empty string — for every
// node count, including N larger than the (zero) record count.
TEST(EmptyInput, ClusterZeroByteInputEveryNodeCount) {
  for (std::size_t nodes : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(nodes);
    cluster::ClusterJob job;
    job.input = "";
    job.format = std::make_shared<ingest::LineFormat>();
    job.make_app = [] {
      return std::unique_ptr<core::Application>(new apps::WordCountApp());
    };
    job.config = empty_config(MergeMode::kPWay, /*degrade=*/false);
    job.config.num_nodes = nodes;
    job.chunk_bytes = 6;
    auto result = cluster::run_cluster(job);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_TRUE(result->output.empty());
    EXPECT_EQ(result->map_output_bytes, 0u);
    EXPECT_EQ(result->shuffle_bytes, 0u);
    EXPECT_EQ(result->local_bytes, 0u);
    ASSERT_EQ(result->nodes.size(), nodes);
    for (const cluster::NodeStats& ns : result->nodes) {
      EXPECT_EQ(ns.input_bytes, 0u);
      EXPECT_EQ(ns.map_output_bytes, 0u);
      EXPECT_EQ(ns.sent_bytes, 0u);
      EXPECT_EQ(ns.recv_bytes, 0u);
      EXPECT_EQ(ns.local_bytes, 0u);
      check_empty_result(ns.job, "cluster-node");
    }
  }
}

// Fixed-record sharding over an empty corpus: zero records slice to zero
// extents everywhere, and the owner-side fixed-record merge (TeraSort path)
// must hand back empty bytes without sampling a splitter.
TEST(EmptyInput, ClusterZeroByteFixedRecords) {
  cluster::ClusterJob job;
  job.input = "";
  job.format = std::make_shared<ingest::FixedFormat>(100);
  job.make_app = [] {
    apps::TeraSortOptions opt;
    opt.key_bytes = 10;
    opt.record_bytes = 100;
    return std::unique_ptr<core::Application>(new apps::TeraSortApp(opt));
  };
  job.config = empty_config(MergeMode::kPWay, /*degrade=*/false);
  job.config.num_nodes = 3;
  job.chunk_bytes = 1000;
  job.record_bytes = 100;
  auto result = cluster::run_cluster(job);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result->output.empty());
  EXPECT_EQ(result->shuffle_bytes + result->local_bytes, 0u);
  EXPECT_EQ(result->shard, core::ShardKind::kFixedRecords);
}

}  // namespace
}  // namespace supmr
