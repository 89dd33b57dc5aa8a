// Unit tests for src/common: units, status, rng, stats, timeseries,
// phase timer.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#include "common/phase_timer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/timeseries.hpp"
#include "common/units.hpp"

namespace supmr {
namespace {

// ---------------------------------------------------------------- units

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(0), "0B");
  EXPECT_EQ(format_bytes(999), "999B");
  EXPECT_EQ(format_bytes(1500), "1.50KB");
  EXPECT_EQ(format_bytes(155 * kGB), "155.00GB");
  EXPECT_EQ(format_bytes(2 * kTB), "2.00TB");
}

TEST(Units, FormatRate) {
  EXPECT_EQ(format_rate(384.0e6), "384.0 MB/s");
  EXPECT_EQ(format_rate(1.25e9), "1.2 GB/s");
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(format_duration(403.9), "403.90s");
  EXPECT_EQ(format_duration(0.002), "2.00ms");
  EXPECT_EQ(format_duration(3e-6), "3.00us");
}

TEST(Units, ParseSizePlainBytes) {
  EXPECT_EQ(parse_size("0"), 0u);
  EXPECT_EQ(parse_size("1234"), 1234u);
  EXPECT_EQ(parse_size("64B"), 64u);
}

TEST(Units, ParseSizeDecimalSuffixes) {
  EXPECT_EQ(parse_size("1KB"), kKB);
  EXPECT_EQ(parse_size("1GB"), kGB);
  EXPECT_EQ(parse_size("50GB"), 50 * kGB);
  EXPECT_EQ(parse_size("1.5GB"), kGB + 500 * kMB);
  EXPECT_EQ(parse_size("2T"), 2 * kTB);
  EXPECT_EQ(parse_size("1e19"), 10'000'000'000'000'000'000u);
  EXPECT_EQ(parse_size("9.3e18"), 9'300'000'000'000'000'000u);
}

TEST(Units, ParseSizeBinarySuffixes) {
  EXPECT_EQ(parse_size("1KiB"), kKiB);
  EXPECT_EQ(parse_size("4MiB"), 4 * kMiB);
  EXPECT_EQ(parse_size("1GiB"), kGiB);
}

TEST(Units, ParseSizeIsCaseInsensitiveAndTrims) {
  EXPECT_EQ(parse_size("  1gb "), kGB);
  EXPECT_EQ(parse_size("512mib"), 512 * kMiB);
  EXPECT_EQ(parse_size("1 GB"), kGB);
}

TEST(Units, ParseSizeRejectsGarbage) {
  EXPECT_FALSE(parse_size("").has_value());
  EXPECT_FALSE(parse_size("GB").has_value());
  EXPECT_FALSE(parse_size("12XB").has_value());
  EXPECT_FALSE(parse_size("-5GB").has_value());
  EXPECT_FALSE(parse_size("1e30GB").has_value());
  EXPECT_FALSE(parse_size("nan").has_value());
  EXPECT_FALSE(parse_size("NaN").has_value());
}

// --------------------------------------------------------------- status

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.to_string(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status st = Status::IoError("pread failed");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(st.to_string(), "IO_ERROR: pread failed");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    EXPECT_NE(status_code_name(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOr, MoveOutValue) {
  StatusOr<std::string> v = std::string(1000, 'x');
  std::string s = std::move(v).value();
  EXPECT_EQ(s.size(), 1000u);
}

Status helper_returns_early(bool fail) {
  SUPMR_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::Ok());
  return Status::Ok();
}

TEST(StatusMacros, ReturnIfError) {
  EXPECT_TRUE(helper_returns_early(false).ok());
  EXPECT_EQ(helper_returns_early(true).code(), StatusCode::kInternal);
}

StatusOr<int> maybe_int(bool fail) {
  if (fail) return Status::OutOfRange("no");
  return 7;
}

Status helper_assign(bool fail, int* out) {
  SUPMR_ASSIGN_OR_RETURN(int v, maybe_int(fail));
  *out = v;
  return Status::Ok();
}

TEST(StatusMacros, AssignOrReturn) {
  int out = 0;
  EXPECT_TRUE(helper_assign(false, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_EQ(helper_assign(true, &out).code(), StatusCode::kOutOfRange);
}

// ------------------------------------------------------------------ rng

TEST(Rng, Deterministic) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformBound) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, UniformRangeInclusive) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_range(3, 5));
  EXPECT_EQ(seen, (std::set<std::uint64_t>{3, 4, 5}));
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Zipf, RankZeroMostFrequent) {
  Xoshiro256 rng(11);
  ZipfSampler zipf(1.0, 1000);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[500]);
}

TEST(Zipf, CoversSupport) {
  Xoshiro256 rng(13);
  ZipfSampler zipf(0.5, 4);
  std::set<std::size_t> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(zipf(rng));
  EXPECT_EQ(seen.size(), 4u);
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, MeanAndStddev) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Histogram, BinningAndTotals) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(double(i % 10) + 0.5);
  EXPECT_EQ(h.total(), 100u);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_EQ(h.bin_count(b), 10u);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(99.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(3), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, PercentileMonotone) {
  Histogram h(0.0, 100.0, 100);
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) h.add(double(rng.uniform(100)));
  EXPECT_LE(h.percentile(10), h.percentile(50));
  EXPECT_LE(h.percentile(50), h.percentile(99));
  EXPECT_NEAR(h.percentile(50), 50.0, 5.0);
}

// ------------------------------------------------------------ timeseries

TEST(TimeSeries, AppendAndAccess) {
  TimeSeries ts({"user", "sys"});
  ts.append(0.0, {10.0, 5.0});
  ts.append(1.0, {20.0, 2.0});
  EXPECT_EQ(ts.samples(), 2u);
  EXPECT_EQ(ts.channels(), 2u);
  EXPECT_DOUBLE_EQ(ts.value(1, 0), 20.0);
  EXPECT_DOUBLE_EQ(ts.row_sum(0), 15.0);
}

TEST(TimeSeries, CsvRoundTripShape) {
  TimeSeries ts({"a"});
  ts.append(0.5, {1.5});
  const std::string csv = ts.to_csv();
  EXPECT_NE(csv.find("t,a\n"), std::string::npos);
  EXPECT_NE(csv.find("0.5,1.5"), std::string::npos);
}

TEST(TimeSeries, AsciiChartContainsLegendAndAxis) {
  TimeSeries ts({"user", "sys", "iowait"});
  for (int i = 0; i < 50; ++i)
    ts.append(double(i), {50.0, 10.0, 5.0});
  const std::string chart = ts.to_ascii_chart(60, 10);
  EXPECT_NE(chart.find("legend:"), std::string::npos);
  EXPECT_NE(chart.find("#=user"), std::string::npos);
  EXPECT_NE(chart.find('#'), std::string::npos);
}

TEST(TimeSeries, EmptyChartDoesNotCrash) {
  TimeSeries ts({"x"});
  EXPECT_EQ(ts.to_ascii_chart(), "(empty trace)\n");
}

// ----------------------------------------------------------- phase timer

TEST(PhaseClock, AccumulatesAcrossStartStop) {
  PhaseClock clock;
  clock.start_total();
  clock.start(Phase::kRead);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  clock.stop(Phase::kRead);
  clock.start(Phase::kRead);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  clock.stop(Phase::kRead);
  clock.stop_total();
  EXPECT_GE(clock.elapsed(Phase::kRead), 0.035);
  EXPECT_GE(clock.total(), clock.elapsed(Phase::kRead));
}

TEST(PhaseClock, MisuseIsALoggedNoOp) {
  // Regression: misuse used to be an assert, so release builds silently
  // corrupted accumulated timings. Now the first start wins, an unmatched
  // stop adds nothing, and timings stay exact.
  PhaseClock clock;
  clock.stop(Phase::kMap);  // stop without start: no interval added
  EXPECT_EQ(clock.elapsed(Phase::kMap), 0.0);

  clock.start(Phase::kRead);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  clock.start(Phase::kRead);  // double start: ignored, first stamp kept
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  clock.stop(Phase::kRead);
  EXPECT_GE(clock.elapsed(Phase::kRead), 0.015);  // spans BOTH sleeps
  clock.stop(Phase::kRead);  // second stop unmatched: accumulates nothing
  const double once = clock.elapsed(Phase::kRead);
  EXPECT_EQ(clock.elapsed(Phase::kRead), once);

  clock.stop_total();  // never started: total stays zero
  EXPECT_EQ(clock.total(), 0.0);
  EXPECT_EQ(clock.now_since_start(), 0.0);  // stopped: clamped to 0

  clock.start_total();
  clock.start_total();  // ignored
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(clock.now_since_start(), 0.0);
  clock.stop_total();
  EXPECT_GT(clock.total(), 0.0);
}

TEST(PhaseBreakdown, TableRowFormats) {
  PhaseBreakdown b;
  b.total_s = 471.75;
  b.read_s = 403.90;
  b.map_s = 67.41;
  const std::string row = b.to_table_row("none");
  EXPECT_NE(row.find("none"), std::string::npos);
  EXPECT_NE(row.find("471.75"), std::string::npos);
  EXPECT_NE(row.find("403.90"), std::string::npos);
}

TEST(PhaseBreakdown, CombinedReadMapRow) {
  PhaseBreakdown b;
  b.has_combined_readmap = true;
  b.readmap_s = 196.86;
  b.total_s = 272.58;
  const std::string row = b.to_table_row("1GB");
  EXPECT_NE(row.find("r+m"), std::string::npos);
  EXPECT_NE(row.find("196.86"), std::string::npos);
}

TEST(PhaseNames, AllDistinct) {
  std::set<std::string_view> names;
  for (int p = 0; p < kNumPhases; ++p)
    names.insert(phase_name(static_cast<Phase>(p)));
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumPhases));
}

}  // namespace
}  // namespace supmr
