// ReplaySpec round-trip and replay-path tests: the repro file a diverging
// harness cell writes must parse back into the identical cell, malformed or
// drifted files must fail loudly, and a written repro must deterministically
// re-run its cell (the contract `supmr replay` relies on).
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "core/replay.hpp"
#include "ref/conformance.hpp"
#include "tests/harness/harness_util.hpp"

namespace supmr::harness {
namespace {

core::ReplaySpec non_default_spec() {
  core::ReplaySpec s;
  s.app = "sort";
  s.corpus.kind = "terasort";
  s.corpus.bytes = 12345;
  s.corpus.seed = 777;
  s.corpus.num_files = 9;
  s.key_bytes = 8;
  s.record_bytes = 64;
  s.hist_lo = -5;
  s.hist_hi = 300;
  s.hist_bins = 17;
  s.grep_patterns = "ab,cd";
  s.memory_budget = 4096;
  s.mode = core::ExecMode::kOriginal;
  s.merge_mode = core::MergeMode::kPairwise;
  s.threads = 7;
  s.chunk_bytes = 8192;
  s.files_per_chunk = 2;
  s.degrade = true;
  s.fault_plan = "seed=3;transient=0.01";
  s.retry_attempts = 5;
  return s;
}

void expect_specs_equal(const core::ReplaySpec& a, const core::ReplaySpec& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.corpus.kind, b.corpus.kind);
  EXPECT_EQ(a.corpus.bytes, b.corpus.bytes);
  EXPECT_EQ(a.corpus.seed, b.corpus.seed);
  EXPECT_EQ(a.corpus.num_files, b.corpus.num_files);
  EXPECT_EQ(a.key_bytes, b.key_bytes);
  EXPECT_EQ(a.record_bytes, b.record_bytes);
  EXPECT_EQ(a.hist_lo, b.hist_lo);
  EXPECT_EQ(a.hist_hi, b.hist_hi);
  EXPECT_EQ(a.hist_bins, b.hist_bins);
  EXPECT_EQ(a.grep_patterns, b.grep_patterns);
  EXPECT_EQ(a.memory_budget, b.memory_budget);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.merge_mode, b.merge_mode);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.chunk_bytes, b.chunk_bytes);
  EXPECT_EQ(a.files_per_chunk, b.files_per_chunk);
  EXPECT_EQ(a.degrade, b.degrade);
  EXPECT_EQ(a.fault_plan, b.fault_plan);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
}

TEST(ReplaySpec, RoundTripNonDefault) {
  const core::ReplaySpec spec = non_default_spec();
  auto parsed = core::ReplaySpec::from_json(spec.to_json());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  expect_specs_equal(spec, *parsed);
}

TEST(ReplaySpec, RoundTripsEveryByteInStrings) {
  // JsonWriter writes bytes below 0x20 as \u00XX escapes and the rest raw;
  // from_json must read each back, or a written repro could not replay.
  std::string bytes;
  for (int b = 0; b < 256; ++b) bytes += static_cast<char>(b);
  core::ReplaySpec spec;
  spec.grep_patterns = bytes;
  spec.fault_plan = bytes;
  auto parsed = core::ReplaySpec::from_json(spec.to_json());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->to_json(), spec.to_json());
}

TEST(ReplaySpec, RoundTripDefaults) {
  const core::ReplaySpec spec;
  auto parsed = core::ReplaySpec::from_json(spec.to_json());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  expect_specs_equal(spec, *parsed);
}

TEST(ReplaySpec, EnumNamesRoundTrip) {
  for (core::ExecMode m :
       {core::ExecMode::kOriginal, core::ExecMode::kIngestMR}) {
    auto back = core::exec_mode_from_name(core::exec_mode_name(m));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, m);
  }
  for (core::MergeMode m :
       {core::MergeMode::kPairwise, core::MergeMode::kPWay}) {
    auto back = core::merge_mode_from_name(core::merge_mode_name(m));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(core::exec_mode_from_name("bogus").ok());
  EXPECT_FALSE(core::merge_mode_from_name("bogus").ok());
}

TEST(ReplaySpec, RejectsMalformedInput) {
  // Truncated object.
  EXPECT_FALSE(core::ReplaySpec::from_json("{").ok());
  // Not an object at all.
  EXPECT_FALSE(core::ReplaySpec::from_json("42").ok());
  EXPECT_FALSE(core::ReplaySpec::from_json("").ok());
  // Trailing garbage after a valid object.
  const std::string valid = core::ReplaySpec().to_json();
  EXPECT_FALSE(core::ReplaySpec::from_json(valid + "x").ok());
}

// `json` with its one occurrence of `from` replaced by `to`.
std::string replaced(std::string json, const std::string& from,
                     const std::string& to) {
  const std::size_t pos = json.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos != std::string::npos) json.replace(pos, from.size(), to);
  return json;
}

TEST(ReplaySpec, RejectsSchemaDrift) {
  core::ReplaySpec spec;
  std::string json = spec.to_json();

  // Unknown key: a repro file from a newer/older schema must fail loudly,
  // not silently drop fields.
  std::string with_unknown = json;
  with_unknown.insert(with_unknown.find('{') + 1, "\"mystery\": 1, ");
  EXPECT_FALSE(core::ReplaySpec::from_json(with_unknown).ok());

  // Missing key: strip "app" entirely.
  std::string without_app = json;
  const std::size_t app_pos = without_app.find("\"app\"");
  ASSERT_NE(app_pos, std::string::npos);
  const std::size_t comma = without_app.find(',', app_pos);
  ASSERT_NE(comma, std::string::npos);
  without_app.erase(app_pos, comma - app_pos + 1);
  EXPECT_FALSE(core::ReplaySpec::from_json(without_app).ok());

  // Bad enum values and invalid app names.
  for (const std::string& bad : {
           replaced(json, "\"wordcount\"", "\"nope\""),
           replaced(json, "\"supmr\"", "\"warp\""),
           replaced(json, "\"pway\"", "\"psychic\""),
           replaced(json, "\"threads\":2", "\"threads\":0"),
       }) {
    EXPECT_FALSE(core::ReplaySpec::from_json(bad).ok()) << bad;
  }
}

TEST(ReplaySpec, RejectsWrongTypesOutOfRangeIntegersAndRepeatedKeys) {
  // A negative or oversized integer must not wrap into a valid-looking
  // value (-1 read as 2^64-1 passes threads >= 1, 2^32+1 retry attempts
  // would run as 1), a quoted number or bool is a string, a bareword is not
  // JSON, a repeated key has no single value, a run needs at least one
  // attempt, and no cell may start more than core::kMaxThreads threads.
  const std::string json = core::ReplaySpec().to_json();
  for (const std::string& bad : {
           replaced(json, "\"threads\":2", "\"threads\":-1"),
           replaced(json, "\"threads\":2",
                    "\"threads\":99999999999999999999"),
           replaced(json, "\"bytes\":131072", "\"bytes\":-4096"),
           replaced(json, "\"threads\":2", "\"threads\":\"2\""),
           replaced(json, "\"degrade\":false", "\"degrade\":\"true\""),
           replaced(json, "\"app\":\"wordcount\"", "\"app\":wordcount"),
           replaced(json, "\"app\":\"wordcount\"",
                    "\"app\":\"wordcount\",\"app\":\"grep\""),
           replaced(json, "\"retry_attempts\":1",
                    "\"retry_attempts\":4294967297"),
           replaced(json, "\"retry_attempts\":1", "\"retry_attempts\":0"),
           replaced(json, "\"threads\":2", "\"threads\":1025"),
           replaced(replaced(json, "\"threads\":2", "\"threads\":256"),
                    "\"nodes\":0", "\"nodes\":8"),
       }) {
    const auto parsed = core::ReplaySpec::from_json(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(ReplaySpec, RemovedClusterBudgetParsesOnlyAsZero) {
  // Specs written before the owner merge budget was removed carry
  // "budget": 0 in their cluster block and still parse; any other value
  // asked for a behaviour that is gone, and the error names the key.
  const std::string json = core::ReplaySpec().to_json();
  EXPECT_EQ(json.find("budget", json.find("\"cluster\"")), std::string::npos)
      << "to_json still writes cluster.budget";
  auto zero = core::ReplaySpec::from_json(
      replaced(json, "\"disk_bps\":0", "\"disk_bps\":0,\"budget\":0"));
  ASSERT_TRUE(zero.ok()) << zero.status().to_string();
  expect_specs_equal(core::ReplaySpec(), *zero);
  auto nonzero = core::ReplaySpec::from_json(
      replaced(json, "\"disk_bps\":0", "\"disk_bps\":0,\"budget\":4096"));
  ASSERT_FALSE(nonzero.ok());
  EXPECT_EQ(nonzero.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nonzero.status().message().find("cluster.budget"),
            std::string::npos)
      << nonzero.status().message();
}

TEST(ReplaySpec, RemovedPartitionedMergeParsesAsPWay) {
  // Specs written while the partitioned merge existed name it and carry
  // its two partition counts. They parse: the merge runs as p-way (every
  // merge gives the same sorted bytes), the counts select nothing, and
  // to_json writes neither key back.
  std::string json = core::ReplaySpec().to_json();
  json = replaced(json, "\"merge\":\"pway\"", "\"merge\":\"partitioned\"");
  json = replaced(json, "\"record_bytes\":100",
                  "\"record_bytes\":100,\"app_partitions\":4");
  json = replaced(json, "\"threads\":2",
                  "\"threads\":2,\"merge_partitions\":5");
  auto parsed = core::ReplaySpec::from_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->merge_mode, core::MergeMode::kPWay);
  expect_specs_equal(core::ReplaySpec(), *parsed);
  const std::string written = parsed->to_json();
  EXPECT_EQ(written.find("app_partitions"), std::string::npos) << written;
  EXPECT_EQ(written.find("merge_partitions"), std::string::npos) << written;
  EXPECT_EQ(written.find("partitioned"), std::string::npos) << written;
}

TEST(ReplaySpec, RemovedAdaptiveModeParsesAsSupmr) {
  // Specs written while adaptive mode existed name it. They parse: the cell
  // runs in SupMR mode over the spec's planned chunks (every mode gives the
  // same bytes), and to_json writes supmr back.
  std::string json = core::ReplaySpec().to_json();
  json = replaced(json, "\"mode\":\"supmr\"", "\"mode\":\"adaptive\"");
  auto parsed = core::ReplaySpec::from_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->mode, core::ExecMode::kIngestMR);
  expect_specs_equal(core::ReplaySpec(), *parsed);
  const std::string written = parsed->to_json();
  EXPECT_EQ(written.find("adaptive"), std::string::npos) << written;
}

TEST(ReplayPath, WrittenReproReRunsItsCell) {
  // The full loop a CI failure goes through: write the spec, read the file
  // back, parse it, run the cell — and it must run the *same* cell.
  core::ReplaySpec spec = spec_wordcount(40);
  spec.corpus.bytes = 48 * 1024;  // keep the replay cell quick
  spec.mode = core::ExecMode::kIngestMR;
  spec.merge_mode = core::MergeMode::kPWay;

  auto path = ref::write_repro(spec, ::testing::TempDir(), "replay-roundtrip");
  ASSERT_TRUE(path.ok()) << path.status().to_string();

  std::ifstream in(*path, std::ios::binary);
  ASSERT_TRUE(in.good()) << *path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto parsed = core::ReplaySpec::from_json(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  expect_specs_equal(spec, *parsed);

  auto outcome = ref::run_cell(*parsed);
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  EXPECT_TRUE(outcome->match) << outcome->diff;
  EXPECT_GT(outcome->sut_canonical.size(), 0u);
}

TEST(ReplayPath, RunCellGuardsInvalidCells) {
  // index requires the multi-text corpus…
  core::ReplaySpec bad = spec_index(41);
  bad.corpus.kind = "text";
  EXPECT_FALSE(ref::run_cell(bad).ok());
  // …and multi-text is only for index.
  core::ReplaySpec bad2 = spec_wordcount(42);
  bad2.corpus.kind = "multi-text";
  EXPECT_FALSE(ref::run_cell(bad2).ok());
  // Degrade needs the supmr ingest pipeline.
  core::ReplaySpec bad3 = spec_wordcount(43);
  bad3.degrade = true;
  bad3.fault_plan = "permanent=1000-2000";
  bad3.mode = core::ExecMode::kOriginal;
  EXPECT_FALSE(ref::run_cell(bad3).ok());
  // Unknown corpus kind.
  core::ReplaySpec bad4 = spec_wordcount(44);
  bad4.corpus.kind = "noise";
  EXPECT_FALSE(ref::run_cell(bad4).ok());
}

TEST(ReplayPath, DiffSummary) {
  EXPECT_EQ(ref::diff_summary("abc", "abc"), "identical");
  const std::string diff = ref::diff_summary("aaab", "aaac");
  EXPECT_NE(diff.find("byte 3"), std::string::npos) << diff;
  // Length mismatch with equal prefix.
  const std::string tail = ref::diff_summary("aaa", "aaaZZ");
  EXPECT_NE(tail.find("3"), std::string::npos) << tail;
}

}  // namespace
}  // namespace supmr::harness
