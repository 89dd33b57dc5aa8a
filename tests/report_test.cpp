// Tests for the JSON writer and job-result reporting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "apps/word_count.hpp"
#include "common/json.hpp"
#include "core/job.hpp"
#include "core/report.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/mem_device.hpp"

namespace supmr {
namespace {

TEST(JsonWriter, ObjectWithMixedValues) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "supmr");
  w.kv("count", std::uint64_t{42});
  w.kv("ratio", 1.5);
  w.kv("flag", true);
  w.kv("neg", std::int64_t{-7});
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"supmr\",\"count\":42,\"ratio\":1.5,"
            "\"flag\":true,\"neg\":-7}");
}

TEST(JsonWriter, NestedStructures) {
  JsonWriter w;
  w.begin_object();
  w.key("list");
  w.begin_array();
  w.value(std::uint64_t{1});
  w.begin_object();
  w.kv("x", std::uint64_t{2});
  w.end_object();
  w.end_array();
  w.kv("after", std::uint64_t{3});
  w.end_object();
  EXPECT_EQ(w.str(), "{\"list\":[1,{\"x\":2}],\"after\":3}");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter w;
  w.begin_object();
  w.kv("s", "a\"b\\c\nd\te");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(JsonWriter, ControlCharsEscaped) {
  JsonWriter w;
  w.value(std::string_view("\x01", 1));
  EXPECT_EQ(w.str(), "\"\\u0001\"");
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::nan(""));
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("a");
  w.begin_array();
  w.end_array();
  w.key("o");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":[],\"o\":{}}");
}

TEST(Report, JobResultJsonShape) {
  apps::WordCountApp app;
  ingest::SingleDeviceSource src(
      std::make_shared<storage::MemDevice>("a b c\na b\n", "m"),
      std::make_shared<ingest::LineFormat>(), 6);
  core::JobConfig jc;
  jc.num_map_threads = 2;
  jc.num_reduce_threads = 1;
  core::MapReduceJob job(app, src, jc);
  auto result = job.run(core::ExecMode::kIngestMR);
  ASSERT_TRUE(result.ok());
  const std::string json = core::job_result_to_json(*result);
  EXPECT_EQ(parse_json(json).status().message(), "");
  // Spot-check structure.
  EXPECT_NE(json.find("\"phases\":{"), std::string::npos);
  EXPECT_NE(json.find("\"readmap_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"pipeline\":{"), std::string::npos);
  EXPECT_NE(json.find("\"chunks\":["), std::string::npos);
  EXPECT_NE(json.find("\"result_count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"merge_rounds\":["), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // Balanced braces/brackets.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Report, PhasesJsonDistinguishesModes) {
  PhaseBreakdown plain;
  plain.read_s = 1.0;
  plain.map_s = 2.0;
  const std::string a = core::phases_to_json(plain);
  EXPECT_EQ(parse_json(a).status().message(), "");
  EXPECT_NE(a.find("\"read_s\":1"), std::string::npos);
  EXPECT_EQ(a.find("readmap_s"), std::string::npos);

  PhaseBreakdown combined;
  combined.has_combined_readmap = true;
  combined.readmap_s = 3.0;
  const std::string b = core::phases_to_json(combined);
  EXPECT_EQ(parse_json(b).status().message(), "");
  EXPECT_NE(b.find("\"readmap_s\":3"), std::string::npos);
}

// Regression: run() used to emit phases.num_chunks = 0 while the top-level
// "chunks" field carried the real plan size. num_chunks is now the real
// count in every mode and "chunked" carries the presentation.
TEST(Report, UnchunkedRunPhasesAreSelfConsistent) {
  apps::WordCountApp app;
  ingest::SingleDeviceSource src(
      std::make_shared<storage::MemDevice>("a b c\na b\nc d\n", "m"),
      std::make_shared<ingest::LineFormat>(), 6);
  core::JobConfig jc;
  jc.num_map_threads = 2;
  jc.num_reduce_threads = 1;
  core::MapReduceJob job(app, src, jc);
  auto result = job.run(core::ExecMode::kOriginal);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->chunks, 1u);
  EXPECT_EQ(result->phases.num_chunks, result->chunks);
  EXPECT_FALSE(result->phases.chunked);
  const std::string json = core::job_result_to_json(*result);
  EXPECT_EQ(parse_json(json).status().message(), "");
  EXPECT_NE(json.find("\"chunked\":false"), std::string::npos);
  EXPECT_NE(json.find("\"num_chunks\":" +
                      std::to_string(result->chunks)),
            std::string::npos);
}

TEST(Report, ChunkedRunPhasesFlagChunked) {
  apps::WordCountApp app;
  ingest::SingleDeviceSource src(
      std::make_shared<storage::MemDevice>("a b c\na b\nc d\n", "m"),
      std::make_shared<ingest::LineFormat>(), 6);
  core::JobConfig jc;
  jc.num_map_threads = 2;
  jc.num_reduce_threads = 1;
  core::MapReduceJob job(app, src, jc);
  auto result = job.run(core::ExecMode::kIngestMR);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->phases.num_chunks, result->chunks);
  EXPECT_TRUE(result->phases.chunked);
  const std::string json = core::job_result_to_json(*result);
  EXPECT_EQ(parse_json(json).status().message(), "");
  EXPECT_NE(json.find("\"chunked\":true"), std::string::npos);
}

TEST(Report, JobResultJsonCarriesMetricsObject) {
  apps::WordCountApp app;
  ingest::SingleDeviceSource src(
      std::make_shared<storage::MemDevice>("a b\n", "m"),
      std::make_shared<ingest::LineFormat>(), 0);
  core::JobConfig jc;
  jc.num_map_threads = 1;
  jc.num_reduce_threads = 1;
  core::MapReduceJob job(app, src, jc);
  auto result = job.run(core::ExecMode::kOriginal);
  ASSERT_TRUE(result.ok());
  const std::string json = core::job_result_to_json(*result);
  EXPECT_EQ(parse_json(json).status().message(), "");
  EXPECT_NE(json.find("\"metrics\":{\"counters\":{"), std::string::npos);
}

TEST(Report, TimeSeriesJson) {
  TimeSeries ts({"user", "sys"});
  ts.append(0.0, {10.0, 1.0});
  ts.append(1.0, {20.0, 2.0});
  const std::string json = core::timeseries_to_json(ts);
  EXPECT_EQ(json,
            "{\"t\":[0,1],\"user\":[10,20],\"sys\":[1,2]}");
}

TEST(Report, DegradeAccountingInJson) {
  core::JobResult result;
  result.chunks = 4;
  result.chunks_skipped = 1;
  result.bytes_skipped = 65536;
  result.pipeline.chunks_skipped = 1;
  result.pipeline.bytes_skipped = 65536;
  ingest::ChunkTiming skipped;
  skipped.index = 0;
  skipped.bytes = 65536;
  skipped.skipped = true;
  result.pipeline.chunks.push_back(skipped);
  const std::string json = core::job_result_to_json(result);
  EXPECT_EQ(parse_json(json).status().message(), "");
  EXPECT_TRUE(result.degraded());
  EXPECT_NE(json.find("\"chunks_skipped\":1"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_skipped\":65536"), std::string::npos);
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
  // The per-chunk record carries the skip flag too.
  EXPECT_NE(json.find("\"skipped\":true"), std::string::npos);
}

TEST(Report, CleanRunIsNotDegraded) {
  core::JobResult result;
  result.chunks = 4;
  const std::string json = core::job_result_to_json(result);
  EXPECT_EQ(parse_json(json).status().message(), "");
  EXPECT_FALSE(result.degraded());
  EXPECT_NE(json.find("\"chunks_skipped\":0"), std::string::npos);
  EXPECT_NE(json.find("\"degraded\":false"), std::string::npos);
}

TEST(Report, StatusToJson) {
  const std::string ok = core::status_to_json(Status::Ok());
  EXPECT_EQ(parse_json(ok).status().message(), "");
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(ok.find("\"code\":\"OK\""), std::string::npos);

  const std::string err = core::status_to_json(
      Status::InvalidArgument("bad \"flag\" value"));
  EXPECT_EQ(parse_json(err).status().message(), "");
  EXPECT_NE(err.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(err.find("\"code\":\"INVALID_ARGUMENT\""), std::string::npos);
  // The message survives with its quotes escaped.
  EXPECT_NE(err.find("bad \\\"flag\\\" value"), std::string::npos);
}

}  // namespace
}  // namespace supmr
