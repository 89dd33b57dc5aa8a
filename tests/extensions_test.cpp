// Tests for the paper's deferred features implemented here: the dense
// fixed-key container and the histogram application.
#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "apps/histogram.hpp"
#include "containers/fixed_kv_array.hpp"
#include "core/job.hpp"
#include "storage/mem_device.hpp"
#include "wload/numeric.hpp"

namespace supmr {
namespace {

using ingest::LineFormat;
using storage::MemDevice;

std::shared_ptr<const storage::Device> mem(std::string s,
                                           std::string name = "m") {
  return std::make_shared<MemDevice>(std::move(s), std::move(name));
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
