// Tests for the paper's deferred features implemented here: the adaptive
// chunk-size feedback loop, the dense fixed-key container, and the
// histogram application.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <thread>

#include "apps/histogram.hpp"
#include "apps/word_count.hpp"
#include "containers/fixed_kv_array.hpp"
#include "core/job.hpp"
#include "ingest/adaptive.hpp"
#include "storage/mem_device.hpp"
#include "storage/rate_limiter.hpp"
#include "storage/throttled_device.hpp"
#include "wload/numeric.hpp"
#include "wload/text_corpus.hpp"

namespace supmr {
namespace {

using ingest::ChunkFeedback;
using ingest::IngestChunk;
using ingest::IngestPipeline;
using ingest::LineFormat;
using ingest::RateMatchingController;
using ingest::SingleDeviceSource;
using storage::MemDevice;

std::shared_ptr<const storage::Device> mem(std::string s,
                                           std::string name = "m") {
  return std::make_shared<MemDevice>(std::move(s), std::move(name));
}

// ------------------------------------------------------- adaptive ingest

TEST(RateMatchingController, LearnsBandwidths) {
  RateMatchingController ctl;
  ctl.observe(ChunkFeedback{0, 1000000, 0.01, 0.0});   // 100 MB/s ingest
  ctl.observe(ChunkFeedback{0, 1000000, 0.0, 0.002});  // 500 MB/s map
  EXPECT_NEAR(ctl.ingest_bw_estimate(), 1e8, 1e6);
  EXPECT_NEAR(ctl.process_bw_estimate(), 5e8, 5e6);
}

TEST(RateMatchingController, SizesChunkToPacingBandwidth) {
  RateMatchingController::Options opt;
  opt.round_floor_s = 0.1;
  opt.min_bytes = 1;
  opt.max_bytes = 1ULL << 40;
  RateMatchingController ctl(opt);
  // Ingest 100 MB/s, map 20 MB/s: map paces the round.
  ctl.observe(ChunkFeedback{0, 10000000, 0.1, 0.0});
  ctl.observe(ChunkFeedback{0, 10000000, 0.0, 0.5});
  EXPECT_NEAR(double(ctl.next_chunk_bytes()), 0.1 * 20e6, 0.1 * 20e6 * 0.05);
}

TEST(RateMatchingController, ClampsToBounds) {
  RateMatchingController::Options opt;
  opt.round_floor_s = 10.0;
  opt.min_bytes = 1000;
  opt.max_bytes = 2000;
  RateMatchingController ctl(opt);
  ctl.observe(ChunkFeedback{0, 1 << 20, 0.001, 0.0});  // ~1 GB/s
  EXPECT_EQ(ctl.next_chunk_bytes(), 2000u);  // clamped to max
}

TEST(RateMatchingController, IgnoresEmptyFeedback) {
  RateMatchingController ctl;
  ctl.observe(ChunkFeedback{0, 0, 0.5, 0.5});
  EXPECT_EQ(ctl.ingest_bw_estimate(), 0.0);
}

// Adaptive mode ignores the source's chunk_bytes; 0 marks it unused.
SingleDeviceSource adaptive_source(std::shared_ptr<const storage::Device> dev) {
  return SingleDeviceSource(std::move(dev), std::make_shared<LineFormat>(), 0);
}

TEST(AdaptiveIngest, DeliversAllBytesInOrder) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 300 * 1024;
  const std::string text = wload::generate_text(cfg);
  const SingleDeviceSource src = adaptive_source(mem(text));
  RateMatchingController::Options opt;
  opt.initial_bytes = 8 * 1024;
  opt.min_bytes = 1024;
  opt.max_bytes = 64 * 1024;
  opt.round_floor_s = 0.001;
  RateMatchingController ctl(opt);
  IngestPipeline pipeline(src);
  std::string rebuilt;
  std::uint64_t last_index = 0;
  auto stats = pipeline.run_adaptive(ctl, [&](IngestChunk& c) {
    EXPECT_GE(c.index, last_index);
    last_index = c.index;
    rebuilt.append(c.bytes().data(), c.size());
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(rebuilt, text);
  EXPECT_EQ(stats->total_bytes, text.size());
  EXPECT_GE(stats->chunks.size(), 4u);
}

TEST(AdaptiveIngest, ShrinksChunksWhenIngestSlow) {
  // Throttled device (slow ingest) + instant processing: the controller
  // should converge to small chunks (ingest paces the pipeline).
  auto base = std::make_shared<MemDevice>(
      wload::generate_text({.total_bytes = 1024 * 1024}), "slow");
  auto limiter =
      std::make_shared<storage::RateLimiter>(8.0e6, /*burst=*/16 * 1024);
  const SingleDeviceSource src = adaptive_source(
      std::make_shared<storage::ThrottledDevice>(base, limiter));
  RateMatchingController::Options opt;
  opt.initial_bytes = 256 * 1024;  // start far too big
  opt.min_bytes = 4 * 1024;
  opt.max_bytes = 1 << 20;
  opt.round_floor_s = 0.002;  // 2 ms rounds at 8 MB/s -> ~16 KB chunks
  RateMatchingController ctl(opt);
  IngestPipeline pipeline(src);
  auto stats =
      pipeline.run_adaptive(ctl, [](IngestChunk&) { return Status::Ok(); });
  ASSERT_TRUE(stats.ok());
  ASSERT_GE(stats->chunks.size(), 3u);
  // Later chunks must be much smaller than the oversized initial chunk.
  // Use the median: individual chunks can ride burst credit after a
  // scheduling hiccup, but the bulk must converge small.
  auto chunks = stats->chunks;
  std::sort(chunks.begin(), chunks.end(),
            [](const auto& a, const auto& b) { return a.bytes < b.bytes; });
  EXPECT_LT(chunks[chunks.size() / 2].bytes, 64u * 1024);
  EXPECT_LT(chunks[chunks.size() / 2].bytes, stats->chunks[0].bytes);
}

TEST(AdaptiveIngest, ConsumerErrorCancels) {
  const SingleDeviceSource src =
      adaptive_source(mem(wload::generate_text({.total_bytes = 200 * 1024})));
  ingest::FixedChunkController ctl(8 * 1024);
  IngestPipeline pipeline(src);
  int calls = 0;
  auto stats = pipeline.run_adaptive(ctl, [&](IngestChunk&) {
    return ++calls == 2 ? Status::Internal("stop") : Status::Ok();
  });
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(calls, 2);
}

TEST(AdaptiveIngest, EmptyDevice) {
  const SingleDeviceSource src = adaptive_source(mem(""));
  ingest::FixedChunkController ctl(1024);
  IngestPipeline pipeline(src);
  int calls = 0;
  auto stats = pipeline.run_adaptive(ctl, [&](IngestChunk&) {
    ++calls;
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(calls, 0);
}

TEST(MapReduceJob, AdaptiveRunMatchesFixedRun) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 128 * 1024;
  const std::string text = wload::generate_text(cfg);
  core::JobConfig jc;
  jc.num_map_threads = 4;
  jc.num_reduce_threads = 2;

  apps::WordCountApp fixed_app;
  ingest::SingleDeviceSource src(mem(text), std::make_shared<LineFormat>(),
                                 16 * 1024);
  core::MapReduceJob fixed_job(fixed_app, src, jc);
  ASSERT_TRUE(fixed_job.run(core::ExecMode::kIngestMR).ok());

  apps::WordCountApp adaptive_app;
  RateMatchingController ctl;
  // Adaptive mode plans over the same source, ignoring its chunk size.
  core::MapReduceJob adaptive_job(adaptive_app, src, jc);
  adaptive_job.set_chunk_controller(ctl);
  auto r = adaptive_job.run(core::ExecMode::kAdaptive);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_TRUE(r->phases.has_combined_readmap);
  EXPECT_GE(r->chunks, 1u);

  EXPECT_EQ(adaptive_app.results(), fixed_app.results());
}

// ---------------------------------------------------------- FixedKvArray

TEST(FixedKvArray, EmitAndReduce) {
  containers::FixedKvArray<containers::SumCombiner<std::uint64_t>> c;
  c.init(2, 4);
  c.emit(0, 1, 5u);
  c.emit(1, 1, 7u);
  c.emit(1, 3, 1u);
  auto all = c.reduce_all();
  EXPECT_EQ(all, (std::vector<std::uint64_t>{0, 12, 0, 1}));
}

TEST(FixedKvArray, RangeReductionDisjoint) {
  containers::FixedKvArray<containers::SumCombiner<std::uint64_t>> c;
  c.init(3, 10);
  for (std::size_t t = 0; t < 3; ++t)
    for (std::size_t k = 0; k < 10; ++k) c.emit(t, k, k);
  std::vector<std::uint64_t> lo(5), hi(5);
  c.reduce_range(0, 5, lo.data());
  c.reduce_range(5, 10, hi.data());
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(lo[k], 3 * k);
    EXPECT_EQ(hi[k], 3 * (k + 5));
  }
}

TEST(FixedKvArray, PersistentAcrossInit) {
  containers::FixedKvArray<containers::SumCombiner<std::uint64_t>> c;
  c.init(1, 2);
  c.emit(0, 0, 1u);
  c.init(1, 2);  // next round: idempotent
  c.emit(0, 0, 1u);
  EXPECT_EQ(c.reduce_all()[0], 2u);
}

TEST(FixedKvArray, MinCombinerVariant) {
  containers::FixedKvArray<containers::MinCombiner<int>> c;
  c.init(2, 2);
  c.emit(0, 0, 5);
  c.emit(1, 0, 3);
  EXPECT_EQ(c.reduce_all()[0], 3);
}

// -------------------------------------------------------------- histogram

TEST(NumericGenerator, ParsesBackExactly) {
  wload::NumericConfig cfg;
  cfg.num_values = 1000;
  const std::string data = wload::generate_numeric(cfg);
  std::size_t lines = 0;
  for (char ch : data) lines += (ch == '\n');
  EXPECT_EQ(lines, 1000u);
}

TEST(Histogram, CountsMatchReference) {
  wload::NumericConfig cfg;
  cfg.num_values = 20000;
  cfg.lo = 0;
  cfg.hi = 99;
  const std::string data = wload::generate_numeric(cfg);

  // Reference histogram.
  std::map<long, std::uint64_t> ref;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t nl = data.find('\n', pos);
    ++ref[std::stol(data.substr(pos, nl - pos))];
    pos = nl + 1;
  }

  apps::HistogramApp app({.lo = 0, .hi = 100, .bins = 100});
  ingest::SingleDeviceSource src(mem(data), std::make_shared<LineFormat>(),
                                 4096);
  core::JobConfig jc;
  jc.num_map_threads = 4;
  jc.num_reduce_threads = 2;
  core::MapReduceJob job(app, src, jc);
  ASSERT_TRUE(job.run(core::ExecMode::kIngestMR).ok());

  EXPECT_EQ(app.values_parsed(), 20000u);
  std::uint64_t total = 0;
  for (std::size_t bin = 0; bin < 100; ++bin) {
    const auto it = ref.find(long(bin));
    EXPECT_EQ(app.counts()[bin], it == ref.end() ? 0u : it->second)
        << "bin " << bin;
    total += app.counts()[bin];
  }
  EXPECT_EQ(total, 20000u);
}

TEST(Histogram, TriangularShape) {
  wload::NumericConfig cfg;
  cfg.num_values = 50000;
  cfg.distribution = wload::NumericDistribution::kTriangular;
  const std::string data = wload::generate_numeric(cfg);
  apps::HistogramApp app({.lo = 0, .hi = 256, .bins = 8});
  ingest::SingleDeviceSource src(mem(data), std::make_shared<LineFormat>(),
                                 0);
  core::JobConfig jc;
  jc.num_map_threads = 2;
  jc.num_reduce_threads = 2;
  core::MapReduceJob job(app, src, jc);
  ASSERT_TRUE(job.run(core::ExecMode::kOriginal).ok());
  // Middle bins outnumber edge bins.
  EXPECT_GT(app.counts()[3], app.counts()[0] * 2);
  EXPECT_GT(app.counts()[4], app.counts()[7] * 2);
}

TEST(Histogram, OutOfRangeAndMalformedDropped) {
  const std::string data = "5\n500\n-3\nnotanumber\n7\n";
  apps::HistogramApp app({.lo = 0, .hi = 10, .bins = 10});
  ingest::SingleDeviceSource src(mem(data), std::make_shared<LineFormat>(),
                                 0);
  core::JobConfig jc;
  jc.num_map_threads = 1;
  jc.num_reduce_threads = 1;
  core::MapReduceJob job(app, src, jc);
  ASSERT_TRUE(job.run(core::ExecMode::kOriginal).ok());
  EXPECT_EQ(app.values_parsed(), 2u);
  EXPECT_EQ(app.values_out_of_range(), 3u);
  EXPECT_EQ(app.counts()[5], 1u);
  EXPECT_EQ(app.counts()[7], 1u);
}

// The full int64 range is 2^64 - 1 wide: the offset and the range must be
// unsigned differences, or value - lo and hi - lo overflow.
TEST(Histogram, FullInt64RangeBins) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::string data = std::to_string(kMin) + "\n-1\n0\n" +
                           std::to_string(kMax - 1) + "\n";
  apps::HistogramApp app({.lo = kMin, .hi = kMax, .bins = 4});
  ingest::SingleDeviceSource src(mem(data), std::make_shared<LineFormat>(),
                                 0);
  core::JobConfig jc;
  jc.num_map_threads = 2;
  jc.num_reduce_threads = 2;
  core::MapReduceJob job(app, src, jc);
  ASSERT_TRUE(job.run(core::ExecMode::kOriginal).ok());
  EXPECT_EQ(app.values_parsed(), 4u);
  EXPECT_EQ(app.counts(), (std::vector<std::uint64_t>{1, 1, 1, 1}));
  EXPECT_EQ(app.bin_of(kMin), 0u);
  EXPECT_EQ(app.bin_of(-1), 1u);
  EXPECT_EQ(app.bin_of(0), 2u);
  EXPECT_EQ(app.bin_of(kMax - 1), 3u);
  // Each bin starts at the least value binned into it.
  EXPECT_EQ(app.bin_start(0), kMin);
  EXPECT_EQ(app.bin_start(2), 0);
  EXPECT_EQ(app.bin_start(4), kMax);
  for (std::size_t b = 1; b < 4; ++b) {
    EXPECT_EQ(app.bin_of(app.bin_start(b)), b);
    EXPECT_EQ(app.bin_of(app.bin_start(b) - 1), b - 1);
  }
}

TEST(Histogram, ChunkedEqualsUnchunked) {
  wload::NumericConfig cfg;
  cfg.num_values = 30000;
  const std::string data = wload::generate_numeric(cfg);
  apps::HistogramApp a({.lo = 0, .hi = 256, .bins = 64});
  apps::HistogramApp b({.lo = 0, .hi = 256, .bins = 64});
  core::JobConfig jc;
  jc.num_map_threads = 4;
  jc.num_reduce_threads = 2;
  ingest::SingleDeviceSource src_a(mem(data), std::make_shared<LineFormat>(),
                                   0);
  ingest::SingleDeviceSource src_b(mem(data), std::make_shared<LineFormat>(),
                                   7001);
  core::MapReduceJob ja(a, src_a, jc), jb(b, src_b, jc);
  ASSERT_TRUE(ja.run(core::ExecMode::kOriginal).ok());
  ASSERT_TRUE(jb.run(core::ExecMode::kIngestMR).ok());
  EXPECT_EQ(a.counts(), b.counts());
}

}  // namespace
}  // namespace supmr
