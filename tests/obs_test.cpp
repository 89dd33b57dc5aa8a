// Tests for the observability layer: metrics registry (bucketing, per-thread
// sharding, aggregation, JSON) and the Chrome-trace recorder (golden schema,
// disabled no-op, event cap). Every emitted document also goes through the
// strict parse_json so schema drift fails loudly.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace supmr::obs {
namespace {

// --- histogram bucketing --------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(histogram_bucket(0), 0u);
  EXPECT_EQ(histogram_bucket(1), 1u);
  EXPECT_EQ(histogram_bucket(2), 2u);
  EXPECT_EQ(histogram_bucket(3), 2u);
  EXPECT_EQ(histogram_bucket(4), 3u);
  EXPECT_EQ(histogram_bucket(7), 3u);
  EXPECT_EQ(histogram_bucket(8), 4u);
  EXPECT_EQ(histogram_bucket((1u << 30) - 1), 30u);
  EXPECT_EQ(histogram_bucket(1u << 30), 31u);  // overflow bucket
  EXPECT_EQ(histogram_bucket(UINT64_MAX), 31u);
}

TEST(Histogram, BucketBoundInvariant) {
  // Every non-overflow value lies in [bound(i)/2, bound(i)).
  for (std::uint64_t v : {1ull, 2ull, 3ull, 100ull, 4095ull, 4096ull,
                          999999ull, (1ull << 29)}) {
    const std::size_t b = histogram_bucket(v);
    ASSERT_LT(b, kHistogramBuckets - 1) << v;
    EXPECT_LT(v, histogram_bucket_bound(b)) << v;
    EXPECT_GE(v, histogram_bucket_bound(b) / 2) << v;
  }
  EXPECT_EQ(histogram_bucket_bound(kHistogramBuckets - 1), UINT64_MAX);
}

TEST(Histogram, CellStats) {
  HistogramCell cell;
  for (std::uint64_t v : {5ull, 9ull, 0ull, 1000ull}) cell.observe(v);
  EXPECT_EQ(cell.count.load(), 4u);
  EXPECT_EQ(cell.sum.load(), 1014u);
  EXPECT_EQ(cell.min.load(), 0u);
  EXPECT_EQ(cell.max.load(), 1000u);
  EXPECT_EQ(cell.buckets[histogram_bucket(5)].load(), 1u);
  EXPECT_EQ(cell.buckets[histogram_bucket(9)].load(), 1u);
  EXPECT_EQ(cell.buckets[0].load(), 1u);  // the zero
  EXPECT_EQ(cell.buckets[histogram_bucket(1000)].load(), 1u);
}

// --- registry sharding and aggregation ------------------------------------

TEST(MetricsRegistry, SingleThreadRoundTrip) {
  MetricsRegistry reg;
  reg.counter_cell("c")->add(3);
  reg.counter_cell("c")->add(4);
  reg.gauge_cell("g")->set(-5);
  reg.histogram_cell("h")->observe(10);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 7u);
  EXPECT_EQ(snap.gauges.at("g"), -5);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
  EXPECT_EQ(snap.histograms.at("h").sum, 10u);
  EXPECT_EQ(snap.histograms.at("h").min, 10u);
  EXPECT_EQ(snap.histograms.at("h").max, 10u);
}

TEST(MetricsRegistry, AggregatesAcrossThreadShards) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      CounterCell* c = reg.counter_cell("shared.counter");
      HistogramCell* h = reg.histogram_cell("shared.hist");
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c->add(1);
        h->observe(std::uint64_t(t) * kPerThread + i);
      }
    });
  }
  for (auto& t : threads) t.join();

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("shared.counter"), kThreads * kPerThread);
  const HistogramSnapshot& h = snap.histograms.at("shared.hist");
  EXPECT_EQ(h.count, kThreads * kPerThread);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, kThreads * kPerThread - 1);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b)
    bucket_total += h.buckets[b];
  EXPECT_EQ(bucket_total, h.count);
}

TEST(MetricsRegistry, ResetZeroesInPlace) {
  MetricsRegistry reg;
  CounterCell* c = reg.counter_cell("c");
  c->add(9);
  reg.histogram_cell("h")->observe(4);
  reg.gauge_cell("g")->set(2);
  reg.reset();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 0u);
  EXPECT_EQ(snap.histograms.at("h").count, 0u);
  EXPECT_EQ(snap.histograms.at("h").min, 0u);
  EXPECT_EQ(snap.gauges.at("g"), 0);
  // The old cell pointer must still be live (macro sites cache it).
  c->add(1);
  EXPECT_EQ(reg.snapshot().counters.at("c"), 1u);
}

TEST(MetricsRegistry, JsonGoldenAndValid) {
  MetricsRegistry reg;
  reg.counter_cell("a")->add(2);
  reg.gauge_cell("g")->set(-1);
  const std::string json = metrics_to_json(reg.snapshot());
  EXPECT_EQ(json,
            "{\"counters\":{\"a\":2},\"gauges\":{\"g\":-1},"
            "\"histograms\":{}}");
  EXPECT_EQ(parse_json(json).status().message(), "");
}

TEST(MetricsRegistry, HistogramJsonShapeAndValid) {
  MetricsRegistry reg;
  reg.histogram_cell("h")->observe(3);
  const std::string json = metrics_to_json(reg.snapshot());
  EXPECT_EQ(parse_json(json).status().message(), "");
  EXPECT_NE(json.find("\"h\":{\"count\":1,\"sum\":3,\"min\":3,\"max\":3,"
                      "\"buckets\":[0,0,1,0,"),
            std::string::npos);
  // Exactly 32 bucket entries.
  const std::size_t start = json.find("\"buckets\":[");
  ASSERT_NE(start, std::string::npos);
  const std::size_t end = json.find(']', start);
  std::size_t commas = 0;
  for (std::size_t i = start; i < end; ++i) commas += json[i] == ',';
  EXPECT_EQ(commas + 1, kHistogramBuckets);
}

TEST(MetricsRegistry, EmptySnapshotEmitsValidJson) {
  const std::string json = metrics_to_json(MetricsSnapshot{});
  EXPECT_EQ(json, "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
  EXPECT_EQ(parse_json(json).status().message(), "");
}

// --- trace recorder -------------------------------------------------------

TEST(TraceRecorder, GoldenSchema) {
  TraceRecorder rec;
  rec.enable();
  rec.set_thread_name("golden");

  TraceEvent span;
  span.name = "span";
  span.cat = "test";
  span.ph = 'X';
  span.ts_ns = 1000;
  span.dur_ns = 500;
  span.arg1_name = "bytes";
  span.arg1 = 42;
  rec.record(span);

  TraceEvent mark;
  mark.name = "mark";
  mark.cat = "test";
  mark.ph = 'i';
  mark.ts_ns = 2500;
  mark.arg1_name = "k";
  mark.arg1 = 7;
  rec.record(mark);

  const std::string json = rec.to_json();
  EXPECT_EQ(
      json,
      "{\"traceEvents\":["
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"golden\"}},"
      "{\"name\":\"span\",\"cat\":\"test\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":1,\"ts\":1,\"dur\":0.5,\"args\":{\"bytes\":42}},"
      "{\"name\":\"mark\",\"cat\":\"test\",\"ph\":\"i\",\"pid\":1,"
      "\"tid\":1,\"ts\":2.5,\"s\":\"t\",\"args\":{\"k\":7}}"
      "],\"displayTimeUnit\":\"ms\"}");
  EXPECT_EQ(parse_json(json).status().message(), "");
}

TEST(TraceRecorder, EventsSortedByTimestamp) {
  TraceRecorder rec;
  rec.enable();
  for (std::uint64_t ts : {5000ull, 1000ull, 3000ull}) {
    TraceEvent e;
    e.name = "e";
    e.cat = "t";
    e.ts_ns = ts;
    rec.record(e);
  }
  const std::string json = rec.to_json();
  EXPECT_EQ(parse_json(json).status().message(), "");
  EXPECT_LT(json.find("\"ts\":1,"), json.find("\"ts\":3,"));
  EXPECT_LT(json.find("\"ts\":3,"), json.find("\"ts\":5,"));
}

TEST(TraceRecorder, DisabledRecordsNothing) {
  TraceRecorder rec;
  TraceEvent e;
  e.name = "e";
  rec.record(e);
  rec.instant("t", "i");
  {
    TraceScope scope("t", "scope", rec);  // inert: disabled at construction
  }
  EXPECT_EQ(rec.to_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

TEST(TraceRecorder, ScopeEmitsCompleteEvent) {
  TraceRecorder rec;
  rec.enable();
  {
    TraceScope scope("cat", "work", rec);
    scope.set_arg("n", 3);
  }
  const std::string json = rec.to_json();
  EXPECT_EQ(parse_json(json).status().message(), "");
  EXPECT_NE(json.find("\"name\":\"work\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"n\":3}"), std::string::npos);
}

TEST(TraceRecorder, EventCapCountsDrops) {
  TraceRecorder rec(/*max_events_per_thread=*/4);
  rec.enable();
  for (int i = 0; i < 10; ++i) {
    TraceEvent e;
    e.name = "e";
    rec.record(e);
  }
  EXPECT_EQ(rec.dropped_events(), 6u);
  rec.clear();
  EXPECT_EQ(rec.dropped_events(), 0u);
  EXPECT_EQ(rec.to_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

TEST(TraceRecorder, PerThreadTids) {
  TraceRecorder rec;
  rec.enable();
  std::thread other([&rec] {
    rec.set_thread_name("other");
    TraceEvent e;
    e.name = "from_other";
    e.cat = "t";
    e.ts_ns = 10;
    rec.record(e);
  });
  other.join();
  TraceEvent e;
  e.name = "from_main";
  e.cat = "t";
  e.ts_ns = 20;
  rec.record(e);

  const std::string json = rec.to_json();
  EXPECT_EQ(parse_json(json).status().message(), "");
  // Two distinct tids must appear.
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"other\""), std::string::npos);
}

// --- macro layer ----------------------------------------------------------

TEST(ObsMacros, CounterAndHistogramFeedGlobalRegistry) {
  // The macros are hard-wired to the global registry; read deltas rather
  // than absolutes so the test is robust to other tests' activity.
  const auto before = MetricsRegistry::global().snapshot();
  const auto counter_before = [&](const char* n) {
    auto it = before.counters.find(n);
    return it == before.counters.end() ? 0u : it->second;
  };
  const std::uint64_t c0 = counter_before("obs_test.counter");

  SUPMR_COUNTER_ADD("obs_test.counter", 2);
  SUPMR_COUNTER_ADD("obs_test.counter", 3);
  SUPMR_HIST_OBSERVE("obs_test.hist", 17);
  SUPMR_GAUGE_SET("obs_test.gauge", 123);

  const auto after = MetricsRegistry::global().snapshot();
#if SUPMR_OBS_ENABLED
  EXPECT_EQ(after.counters.at("obs_test.counter"), c0 + 5);
  EXPECT_GE(after.histograms.at("obs_test.hist").count, 1u);
  EXPECT_EQ(after.gauges.at("obs_test.gauge"), 123);
#else
  EXPECT_EQ(counter_before("obs_test.counter"), c0);
  (void)after;
#endif
}

}  // namespace
}  // namespace supmr::obs
