// Core runtime tests: job lifecycle, phase accounting, pipeline integration,
// configuration validation, persistence requirement, /proc sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>

#include "apps/word_count.hpp"
#include "core/job.hpp"
#include "core/proc_sampler.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/fault_device.hpp"
#include "storage/mem_device.hpp"
#include "storage/rate_limiter.hpp"
#include "storage/throttled_device.hpp"
#include "wload/text_corpus.hpp"

namespace supmr::core {
namespace {

using apps::WordCountApp;
using ingest::LineFormat;
using ingest::SingleDeviceSource;
using storage::MemDevice;

std::shared_ptr<const storage::Device> mem(std::string s) {
  return std::make_shared<MemDevice>(std::move(s), "mem");
}

JobConfig cfg(std::size_t mappers = 4) {
  JobConfig c;
  c.num_map_threads = mappers;
  c.num_reduce_threads = 2;
  return c;
}

// A minimal application that records its lifecycle for protocol tests.
class ProbeApp : public Application {
 public:
  void init(std::size_t mappers) override {
    ++inits_;
    mappers_ = mappers;
  }
  Status prepare_round(const ingest::IngestChunk& chunk) override {
    ++rounds_;
    chunk_sizes_.push_back(chunk.data.size());
    tasks_this_round_ = std::min<std::size_t>(mappers_, 2);
    return Status::Ok();
  }
  std::size_t round_tasks() const override { return tasks_this_round_; }
  void map_task(std::size_t, std::size_t) override { ++map_tasks_; }
  Status reduce(ThreadPool&, std::size_t) override {
    ++reduces_;
    return Status::Ok();
  }
  Status merge(ThreadPool&, const MergePlan&, merge::MergeStats*) override {
    ++merges_;
    return Status::Ok();
  }
  std::uint64_t result_count() const override { return 0; }

  int inits_ = 0, reduces_ = 0, merges_ = 0;
  std::atomic<int> map_tasks_{0};
  int rounds_ = 0;
  std::size_t mappers_ = 0, tasks_this_round_ = 0;
  std::vector<std::size_t> chunk_sizes_;
};

TEST(MapReduceJob, LifecycleOriginalRuntime) {
  ProbeApp app;
  SingleDeviceSource src(mem("aa\nbb\ncc\n"),
                         std::make_shared<LineFormat>(), 0);
  MapReduceJob job(app, src, cfg());
  auto result = job.run(ExecMode::kOriginal);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(app.inits_, 1);
  EXPECT_EQ(app.rounds_, 1);  // whole input = one round
  EXPECT_EQ(app.map_tasks_.load(), 2);
  EXPECT_EQ(app.reduces_, 1);
  EXPECT_EQ(app.merges_, 1);
  EXPECT_EQ(result->map_rounds, 1u);
  // num_chunks is the plan's real extent count in every mode (here one
  // whole-input chunk); `chunked` carries the presentation.
  EXPECT_EQ(result->phases.num_chunks, 1u);
  EXPECT_EQ(result->chunks, 1u);
  EXPECT_FALSE(result->phases.chunked);
  EXPECT_FALSE(result->phases.has_combined_readmap);
}

TEST(MapReduceJob, LifecycleIngestMR) {
  ProbeApp app;
  SingleDeviceSource src(mem("aa\nbb\ncc\ndd\n"),
                         std::make_shared<LineFormat>(), 3);
  MapReduceJob job(app, src, cfg());
  auto result = job.run(ExecMode::kIngestMR);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(app.inits_, 1);  // persistent container: init once
  EXPECT_EQ(app.rounds_, 4);
  EXPECT_EQ(app.reduces_, 1);
  EXPECT_EQ(app.merges_, 1);
  EXPECT_EQ(result->map_rounds, 4u);
  EXPECT_EQ(result->phases.num_chunks, 4u);
  EXPECT_TRUE(result->phases.has_combined_readmap);
  EXPECT_EQ(result->pipeline.chunks.size(), 4u);
  EXPECT_EQ(result->pipeline.total_bytes, 12u);
}

TEST(MapReduceJob, PhaseTimesArePopulated) {
  wload::TextCorpusConfig tc;
  tc.total_bytes = 256 * 1024;
  WordCountApp app;
  SingleDeviceSource src(mem(wload::generate_text(tc)),
                         std::make_shared<LineFormat>(), 32 * 1024);
  MapReduceJob job(app, src, cfg());
  auto result = job.run(ExecMode::kIngestMR);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->phases.total_s, 0.0);
  EXPECT_GT(result->phases.readmap_s, 0.0);
  EXPECT_GE(result->phases.reduce_s, 0.0);
  EXPECT_GE(result->phases.merge_s, 0.0);
  // The combined phase can't exceed the total.
  EXPECT_LE(result->phases.readmap_s, result->phases.total_s + 1e-9);
}

TEST(MapReduceJob, PrepareRoundErrorAborts) {
  class FailingApp final : public ProbeApp {
   public:
    Status prepare_round(const ingest::IngestChunk& chunk) override {
      SUPMR_RETURN_IF_ERROR(ProbeApp::prepare_round(chunk));
      if (rounds_ == 2) return Status::Internal("round 2 failed");
      return Status::Ok();
    }
  };
  FailingApp app;
  SingleDeviceSource src(mem("aa\nbb\ncc\n"),
                         std::make_shared<LineFormat>(), 3);
  MapReduceJob job(app, src, cfg());
  auto result = job.run(ExecMode::kIngestMR);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(app.merges_, 0);  // never reached merge
}

TEST(MapReduceJob, IngestIoErrorPropagates) {
  MemDevice base("aaaa\nbbbb\ncccc\n");
  // Count planning reads on a clean probe stack; plans are deterministic in
  // the bytes, so the faulted run below replans with the same read count and
  // its first data read lands on call index `planning_calls`.
  storage::FaultDevice probe(&base);
  auto probe_dev = std::shared_ptr<const storage::Device>(
      &probe, [](const storage::Device*) {});
  SingleDeviceSource probe_src(probe_dev, std::make_shared<LineFormat>(), 5);
  ASSERT_TRUE(probe_src.plan().ok());
  const std::uint64_t planning_calls = probe.calls();

  fault::FaultPlan fplan;
  fplan.fail_calls.push_back(planning_calls);
  storage::FaultDevice fault(&base, fplan);
  auto dev = std::shared_ptr<const storage::Device>(
      &fault, [](const storage::Device*) {});
  SingleDeviceSource src(dev, std::make_shared<LineFormat>(), 5);
  WordCountApp app;
  MapReduceJob job(app, src, cfg());
  auto result = job.run(ExecMode::kIngestMR);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(MapReduceJob, RejectsZeroThreads) {
  // A zero map or reduce thread count is a bad configuration, not an empty
  // job: the run must fail instead of returning no results as success.
  for (auto [mappers, reducers] :
       {std::pair<std::size_t, std::size_t>{0, 2}, {4, 0}}) {
    WordCountApp app;
    SingleDeviceSource src(mem("a b c a\nb a\n"),
                           std::make_shared<LineFormat>(), 0);
    JobConfig c = cfg();
    c.num_map_threads = mappers;
    c.num_reduce_threads = reducers;
    MapReduceJob job(app, src, c);
    auto result = job.run(ExecMode::kIngestMR);
    ASSERT_FALSE(result.ok()) << mappers << " map, " << reducers << " reduce";
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(MapReduceJob, UnpooledWavesProduceSameResult) {
  wload::TextCorpusConfig tc;
  tc.total_bytes = 32 * 1024;
  const std::string text = wload::generate_text(tc);
  WordCountApp pooled, unpooled;
  JobConfig unpooled_cfg = cfg();
  unpooled_cfg.unpooled_map_waves = true;
  SingleDeviceSource src_a(mem(text), std::make_shared<LineFormat>(), 4096);
  SingleDeviceSource src_b(mem(text), std::make_shared<LineFormat>(), 4096);
  MapReduceJob ja(pooled, src_a, cfg());
  MapReduceJob jb(unpooled, src_b, unpooled_cfg);
  ASSERT_TRUE(ja.run(ExecMode::kIngestMR).ok());
  ASSERT_TRUE(jb.run(ExecMode::kIngestMR).ok());
  EXPECT_EQ(pooled.results(), unpooled.results());
}

TEST(MapReduceJob, ThrottledDeviceShowsIngestBoundPipeline) {
  // With ingest massively slower than map, the combined read+map phase is
  // dominated by consumer starvation (read_s), not map compute — the paper's
  // word-count regime.
  const std::string text(200 * 1024, 'a');  // trivially tokenized
  auto base = std::make_shared<MemDevice>(text + "\n", "slow");
  auto limiter = std::make_shared<storage::RateLimiter>(2.0e6);  // 2 MB/s
  auto dev = std::make_shared<storage::ThrottledDevice>(base, limiter);
  WordCountApp app;
  SingleDeviceSource src(dev, std::make_shared<LineFormat>(), 32 * 1024);
  MapReduceJob job(app, src, cfg(2));
  auto result = job.run(ExecMode::kIngestMR);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->phases.readmap_s, 0.05);
  EXPECT_GT(result->phases.read_s, result->phases.map_s);
}

TEST(JobConfig, ReducePartitionsDefault) {
  JobConfig c;
  c.num_reduce_threads = 3;
  EXPECT_EQ(c.reduce_partitions(), 12u);
}

TEST(ProcStatSampler, CollectsSamplesWhenAvailable) {
  if (!ProcStatSampler::available()) {
    GTEST_SKIP() << "/proc/stat not readable";
  }
  ProcStatSampler sampler(0.02);
  sampler.start();
  // Generate some load so user% is nonzero.
  volatile double sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 <
         std::chrono::milliseconds(150)) {
    sink = sink + 1.0;
  }
  TimeSeries trace = sampler.stop();
  EXPECT_GE(trace.samples(), 3u);
  for (std::size_t i = 0; i < trace.samples(); ++i) {
    EXPECT_LE(trace.row_sum(i), 100.0 + 1e-6);
    for (std::size_t c = 0; c < trace.channels(); ++c)
      EXPECT_GE(trace.value(i, c), 0.0);
  }
}

}  // namespace
}  // namespace supmr::core
