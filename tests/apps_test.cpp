// Application-level tests: word count, TeraSort, grep, inverted index —
// each validated against an independent reference computation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>

#include "apps/doc_term_count.hpp"
#include "apps/grep.hpp"
#include "apps/inverted_index.hpp"
#include "apps/pair_count.hpp"
#include "apps/split.hpp"
#include "apps/tera_sort.hpp"
#include "apps/tokenize.hpp"
#include "apps/word_count.hpp"
#include "common/rng.hpp"
#include "core/job.hpp"
#include "core/replay.hpp"
#include "storage/mem_device.hpp"
#include "wload/teragen.hpp"
#include "wload/text_corpus.hpp"

namespace supmr::apps {
namespace {

using core::JobConfig;
using core::MapReduceJob;
using core::MergeMode;
using ingest::LineFormat;
using ingest::MultiFileSource;
using ingest::SingleDeviceSource;
using storage::MemDevice;

std::shared_ptr<const storage::Device> mem(std::string s,
                                           std::string name = "mem") {
  return std::make_shared<MemDevice>(std::move(s), std::move(name));
}

JobConfig small_config() {
  JobConfig cfg;
  cfg.num_map_threads = 4;
  cfg.num_reduce_threads = 2;
  return cfg;
}

// Reference word counter using the same tokenizer.
std::map<std::string, std::uint64_t> reference_counts(
    const std::string& text) {
  std::map<std::string, std::uint64_t> counts;
  tokenize_words(std::span<const char>(text.data(), text.size()),
                 [&](std::string_view w, std::uint64_t) {
                   ++counts[std::string(w)];
                 });
  return counts;
}

// ---------------------------------------------------------------- tokenize

TEST(Tokenize, LowercasesAndSplitsOnNonAlnum) {
  std::vector<std::string> words;
  const std::string text = "Hello, World! foo_bar x123\ntail";
  tokenize_words(std::span<const char>(text.data(), text.size()),
                 [&](std::string_view w, std::uint64_t) {
                   words.emplace_back(w);
                 });
  EXPECT_EQ(words, (std::vector<std::string>{"hello", "world", "foo", "bar",
                                             "x123", "tail"}));
}

TEST(Tokenize, EmptyAndAllDelims) {
  int count = 0;
  const std::string text = " .,;\n\t ";
  tokenize_words(std::span<const char>(text.data(), text.size()),
                 [&](std::string_view, std::uint64_t) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(Tokenize, TruncatesPathologicalWords) {
  std::string text(10 * kMaxWord, 'a');
  std::vector<std::string> words;
  tokenize_words(std::span<const char>(text.data(), text.size()),
                 [&](std::string_view w, std::uint64_t) {
                   words.emplace_back(w);
                 });
  ASSERT_EQ(words.size(), 1u);
  EXPECT_EQ(words[0].size(), kMaxWord);
}

TEST(SplitText, NeverSplitsMidWord) {
  const std::string text = "alpha beta gamma delta epsilon zeta";
  auto splits = split_text(std::span<const char>(text.data(), text.size()), 4);
  ASSERT_GE(splits.size(), 2u);
  std::size_t covered = 0;
  for (const auto& s : splits) {
    covered += s.size();
    if (s.data() + s.size() < text.data() + text.size()) {
      // Split boundary must fall on a non-word char.
      EXPECT_FALSE(is_word_char(s.data()[s.size()]))
          << "split mid-word";
    }
  }
  EXPECT_EQ(covered, text.size());
}

// -------------------------------------------------------------- word count

TEST(WordCount, MatchesReferenceOriginalRuntime) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 64 * 1024;
  const std::string text = wload::generate_text(cfg);
  const auto expected = reference_counts(text);

  WordCountApp app;
  SingleDeviceSource src(mem(text), std::make_shared<LineFormat>(), 0);
  MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kOriginal);
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  ASSERT_EQ(app.results().size(), expected.size());
  // Results are sorted by word; expected (std::map) iterates in the same
  // order, so the full sequence must match exactly.
  std::size_t i = 0;
  for (const auto& [word, count] : expected) {
    EXPECT_EQ(app.results()[i].first, word);
    EXPECT_EQ(app.results()[i].second, count);
    ++i;
  }
  EXPECT_EQ(result->result_count, expected.size());
}

TEST(WordCount, ChunkedEqualsUnchunked) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 128 * 1024;
  const std::string text = wload::generate_text(cfg);

  WordCountApp unchunked;
  SingleDeviceSource src0(mem(text), std::make_shared<LineFormat>(), 0);
  MapReduceJob job0(unchunked, src0, small_config());
  ASSERT_TRUE(job0.run(core::ExecMode::kOriginal).ok());

  WordCountApp chunked;
  SingleDeviceSource src1(mem(text), std::make_shared<LineFormat>(), 9973);
  MapReduceJob job1(chunked, src1, small_config());
  auto result = job1.run(core::ExecMode::kIngestMR);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_GT(result->chunks, 2u);
  EXPECT_EQ(result->map_rounds, result->chunks);

  EXPECT_EQ(chunked.results(), unchunked.results());
  EXPECT_EQ(chunked.words_mapped(), unchunked.words_mapped());
}

TEST(WordCount, PairwiseAndPwayMergeAgree) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 32 * 1024;
  const std::string text = wload::generate_text(cfg);

  JobConfig cfg_pway = small_config();
  cfg_pway.merge_mode = MergeMode::kPWay;
  JobConfig cfg_pair = small_config();
  cfg_pair.merge_mode = MergeMode::kPairwise;

  WordCountApp a, b;
  SingleDeviceSource src_a(mem(text), std::make_shared<LineFormat>(), 0);
  SingleDeviceSource src_b(mem(text), std::make_shared<LineFormat>(), 0);
  MapReduceJob ja(a, src_a, cfg_pway), jb(b, src_b, cfg_pair);
  ASSERT_TRUE(ja.run(core::ExecMode::kOriginal).ok());
  ASSERT_TRUE(jb.run(core::ExecMode::kOriginal).ok());
  EXPECT_EQ(a.results(), b.results());
}

TEST(WordCount, EmptyInput) {
  WordCountApp app;
  SingleDeviceSource src(mem(""), std::make_shared<LineFormat>(), 0);
  MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kOriginal);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(app.results().empty());
}

TEST(WordCount, SingleThreadConfig) {
  JobConfig cfg;
  cfg.num_map_threads = 1;
  cfg.num_reduce_threads = 1;
  WordCountApp app;
  SingleDeviceSource src(mem("a b a\nc a b\n"),
                         std::make_shared<LineFormat>(), 4);
  MapReduceJob job(app, src, cfg);
  ASSERT_TRUE(job.run(core::ExecMode::kIngestMR).ok());
  ASSERT_EQ(app.results().size(), 3u);
  EXPECT_EQ(app.results()[0], (WordCountApp::Result{"a", 3}));
  EXPECT_EQ(app.results()[1], (WordCountApp::Result{"b", 2}));
  EXPECT_EQ(app.results()[2], (WordCountApp::Result{"c", 1}));
}

// ---------------------------------------------------------------- TeraSort

wload::TeraGenConfig tiny_teragen(std::uint64_t records, std::uint64_t seed) {
  wload::TeraGenConfig cfg;
  cfg.num_records = records;
  cfg.seed = seed;
  return cfg;
}

void expect_terasorted(const TeraSortApp& app, const std::string& input,
                       const wload::TeraGenConfig& cfg) {
  const auto& sorted = app.sorted_data();
  ASSERT_EQ(sorted.size(), input.size());
  // Sorted by key prefix.
  for (std::uint64_t r = 1; r < cfg.num_records; ++r) {
    EXPECT_LE(std::memcmp(sorted.data() + (r - 1) * cfg.record_bytes,
                          sorted.data() + r * cfg.record_bytes,
                          cfg.key_bytes),
              0);
  }
  // Same multiset of records: compare sorted lists of whole records.
  std::vector<std::string_view> in_recs, out_recs;
  for (std::uint64_t r = 0; r < cfg.num_records; ++r) {
    in_recs.emplace_back(input.data() + r * cfg.record_bytes,
                         cfg.record_bytes);
    out_recs.emplace_back(sorted.data() + r * cfg.record_bytes,
                          cfg.record_bytes);
  }
  std::sort(in_recs.begin(), in_recs.end());
  std::sort(out_recs.begin(), out_recs.end());
  EXPECT_EQ(in_recs, out_recs);
}

TEST(TeraSort, SortsOriginalRuntime) {
  const auto cfg = tiny_teragen(3000, 1);
  const std::string input = wload::teragen_to_string(cfg);
  TeraSortApp app;
  SingleDeviceSource src(mem(input),
                         std::make_shared<ingest::CrlfFormat>(), 0);
  MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kOriginal);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->result_count, cfg.num_records);
  EXPECT_EQ(app.malformed_records(), 0u);
  expect_terasorted(app, input, cfg);
}

TEST(TeraSort, ChunkedEqualsUnchunked) {
  const auto cfg = tiny_teragen(5000, 2);
  const std::string input = wload::teragen_to_string(cfg);

  TeraSortApp a, b;
  SingleDeviceSource src_a(mem(input),
                           std::make_shared<ingest::CrlfFormat>(), 0);
  SingleDeviceSource src_b(mem(input),
                           std::make_shared<ingest::CrlfFormat>(), 37700);
  MapReduceJob ja(a, src_a, small_config()), jb(b, src_b, small_config());
  ASSERT_TRUE(ja.run(core::ExecMode::kOriginal).ok());
  auto rb = jb.run(core::ExecMode::kIngestMR);
  ASSERT_TRUE(rb.ok());
  EXPECT_GT(rb->chunks, 5u);
  EXPECT_EQ(a.sorted_data(), b.sorted_data());
  EXPECT_EQ(a.key_checksum(), b.key_checksum());
}

TEST(TeraSort, PairwiseMergeModeSortsToo) {
  const auto cfg = tiny_teragen(2000, 3);
  const std::string input = wload::teragen_to_string(cfg);
  JobConfig jc = small_config();
  jc.merge_mode = MergeMode::kPairwise;
  TeraSortApp app;
  SingleDeviceSource src(mem(input),
                         std::make_shared<ingest::CrlfFormat>(), 0);
  MapReduceJob job(app, src, jc);
  auto result = job.run(core::ExecMode::kOriginal);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->merge_stats.num_rounds(), 1u);  // iterative rounds
  expect_terasorted(app, input, cfg);
}

TEST(TeraSort, PwayMergeSingleRound) {
  const auto cfg = tiny_teragen(2000, 4);
  const std::string input = wload::teragen_to_string(cfg);
  TeraSortApp app;
  SingleDeviceSource src(mem(input),
                         std::make_shared<ingest::CrlfFormat>(), 0);
  MapReduceJob job(app, src, small_config());  // default kPWay
  auto result = job.run(core::ExecMode::kOriginal);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->merge_stats.num_rounds(), 1u);
}

TEST(TeraSort, RejectsTornChunk) {
  TeraSortApp app;
  // 150 bytes is not a whole number of 100-byte records.
  SingleDeviceSource src(mem(std::string(150, 'x')),
                         std::make_shared<ingest::FixedFormat>(1), 0);
  MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kOriginal);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TeraSort, CountsMalformedRecords) {
  const auto cfg = tiny_teragen(100, 5);
  std::string input = wload::teragen_to_string(cfg);
  // Corrupt the terminator of record 3.
  input[3 * cfg.record_bytes + cfg.record_bytes - 1] = 'X';
  TeraSortApp app;
  SingleDeviceSource src(mem(input),
                         std::make_shared<ingest::FixedFormat>(100), 0);
  MapReduceJob job(app, src, small_config());
  ASSERT_TRUE(job.run(core::ExecMode::kOriginal).ok());
  EXPECT_EQ(app.malformed_records(), 1u);
}

// 100-byte records whose keys start with one of four random 8-byte
// prefixes and differ only in key bytes 8 and 9, with bytes >= 0x80
// throughout. Within a group every 8-byte prefix ties, so at key_bytes 10
// the order comes from the bytes past the prefix alone, while at key_bytes
// 4 and 8 the groups' own order checks how the prefix is compared. TeraGen
// keys almost never tie on 8 bytes, so its inputs exercise neither.
std::string shared_prefix_records(std::size_t records, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  char prefixes[4][8];
  for (auto& prefix : prefixes) {
    for (char& b : prefix) b = static_cast<char>(rng.uniform(256));
  }
  std::string data(records * 100, 'x');
  for (std::size_t r = 0; r < records; ++r) {
    char* rec = data.data() + r * 100;
    std::memcpy(rec, prefixes[rng.uniform(4)], 8);
    rec[8] = static_cast<char>(rng.uniform(256));
    rec[9] = static_cast<char>(rng.uniform(256));
    std::snprintf(rec + 10, 11, "%010zu", r);  // distinct payloads
    rec[98] = '\r';
    rec[99] = '\n';
  }
  return data;
}

TEST(TeraSort, OrdersKeysThatTieOnTheirFirstEightBytes) {
  constexpr std::size_t kRecords = 3000;
  const std::string input = shared_prefix_records(kRecords, 11);
  for (const std::uint32_t kb : {4u, 8u, 10u}) {
    for (const MergeMode merge : {MergeMode::kPWay, MergeMode::kPairwise}) {
      SCOPED_TRACE("key_bytes=" + std::to_string(kb) + " merge=" +
                   std::string(core::merge_mode_name(merge)));
      TeraSortOptions opt;
      opt.key_bytes = kb;
      TeraSortApp app(opt);
      // Several chunks, so the flat container fills more than one segment.
      SingleDeviceSource src(mem(input),
                             std::make_shared<ingest::FixedFormat>(100),
                             /*chunk_bytes=*/37700);
      JobConfig jc = small_config();
      jc.merge_mode = merge;
      MapReduceJob job(app, src, jc);
      auto result = job.run(core::ExecMode::kIngestMR);
      ASSERT_TRUE(result.ok()) << result.status().to_string();
      wload::TeraGenConfig cfg;
      cfg.num_records = kRecords;
      cfg.key_bytes = kb;
      expect_terasorted(app, input, cfg);
    }
  }
}

TEST(TeraSort, RejectsImpossibleGeometry) {
  struct Case {
    std::uint32_t key_bytes;
    std::uint32_t record_bytes;
    std::string message;
  };
  const Case cases[] = {
      {10, 0, "terasort: record_bytes must be in [3, 4294967295], got 0"},
      {1, 1, "terasort: record_bytes must be in [3, 4294967295], got 1"},
      {400, 100,
       "terasort: key_bytes must be in [1, 98] for record_bytes=100, got 400"},
      {0, 100,
       "terasort: key_bytes must be in [1, 98] for record_bytes=100, got 0"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.message);
    TeraSortOptions opt;
    opt.key_bytes = c.key_bytes;
    opt.record_bytes = c.record_bytes;
    TeraSortApp app(opt);
    SingleDeviceSource src(mem(std::string(1000, 'x')),
                           std::make_shared<ingest::FixedFormat>(100), 0);
    MapReduceJob job(app, src, small_config());
    auto result = job.run(core::ExecMode::kOriginal);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(result.status().message(), c.message);
  }
}

// -------------------------------------------------------------------- grep

TEST(CountOccurrences, NonOverlapping) {
  EXPECT_EQ(count_occurrences("aaaa", "aa"), 2u);
  EXPECT_EQ(count_occurrences("abcabc", "abc"), 2u);
  EXPECT_EQ(count_occurrences("abc", ""), 0u);
  EXPECT_EQ(count_occurrences("ab", "abc"), 0u);
}

TEST(Grep, CountsPatternsAcrossLines) {
  const std::string text =
      "the cat sat\n"
      "on the mat\n"
      "cat and dog\n";
  GrepApp app({"cat", "the", "zebra"});
  SingleDeviceSource src(mem(text), std::make_shared<LineFormat>(), 0);
  MapReduceJob job(app, src, small_config());
  ASSERT_TRUE(job.run(core::ExecMode::kOriginal).ok());
  ASSERT_EQ(app.results().size(), 2u);  // zebra absent
  EXPECT_EQ(app.results()[0], (GrepApp::Result{"cat", 2}));
  EXPECT_EQ(app.results()[1], (GrepApp::Result{"the", 2}));
  EXPECT_EQ(app.lines_scanned(), 3u);
}

TEST(Grep, ChunkedEqualsUnchunked) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 64 * 1024;
  const std::string text = wload::generate_text(cfg);
  GrepApp a({"aa", "the", "qq"});
  GrepApp b({"aa", "the", "qq"});
  SingleDeviceSource src_a(mem(text), std::make_shared<LineFormat>(), 0);
  SingleDeviceSource src_b(mem(text), std::make_shared<LineFormat>(), 4096);
  MapReduceJob ja(a, src_a, small_config()), jb(b, src_b, small_config());
  ASSERT_TRUE(ja.run(core::ExecMode::kOriginal).ok());
  ASSERT_TRUE(jb.run(core::ExecMode::kIngestMR).ok());
  EXPECT_EQ(a.results(), b.results());
  EXPECT_EQ(a.lines_scanned(), b.lines_scanned());
}

// ---------------------------------------------------------- inverted index

TEST(InvertedIndex, BuildsPostings) {
  std::vector<std::shared_ptr<const storage::Device>> files = {
      mem("apple banana\n", "f0"), mem("banana cherry\n", "f1"),
      mem("apple\n", "f2")};
  InvertedIndexApp app;
  MultiFileSource src(files, 2);
  MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kIngestMR);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_EQ(app.index().size(), 3u);
  EXPECT_EQ(app.index()[0].first, "apple");
  EXPECT_EQ(app.index()[0].second, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(app.index()[1].first, "banana");
  EXPECT_EQ(app.index()[1].second, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(app.index()[2].first, "cherry");
  EXPECT_EQ(app.index()[2].second, (std::vector<std::uint32_t>{1}));
}

TEST(InvertedIndex, RequiresFileSpans) {
  InvertedIndexApp app;
  SingleDeviceSource src(mem("words here\n"),
                         std::make_shared<LineFormat>(), 0);
  MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kOriginal);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(InvertedIndex, ChunkingInvariantToFilesPerChunk) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 2048;
  auto files = wload::generate_text_files(cfg, 12, 2048);
  std::vector<std::vector<InvertedIndexApp::Posting>> outputs;
  for (std::size_t per_chunk : {1u, 3u, 12u}) {
    InvertedIndexApp app;
    MultiFileSource src(files, per_chunk);
    MapReduceJob job(app, src, small_config());
    ASSERT_TRUE(job.run(core::ExecMode::kIngestMR).ok());
    outputs.push_back(app.index());
  }
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    ASSERT_EQ(outputs[i].size(), outputs[0].size());
    for (std::size_t j = 0; j < outputs[0].size(); ++j) {
      EXPECT_EQ(outputs[i][j].first, outputs[0][j].first);
      EXPECT_EQ(outputs[i][j].second, outputs[0][j].second);
    }
  }
}

TEST(InvertedIndex, DuplicateWordsInOneFileDeduplicated) {
  std::vector<std::shared_ptr<const storage::Device>> files = {
      mem("dup dup dup\n", "f0")};
  InvertedIndexApp app;
  MultiFileSource src(files, 1);
  MapReduceJob job(app, src, small_config());
  ASSERT_TRUE(job.run(core::ExecMode::kIngestMR).ok());
  ASSERT_EQ(app.index().size(), 1u);
  EXPECT_EQ(app.index()[0].second, (std::vector<std::uint32_t>{0}));
}

// ------------------------------------------------------ keyed-app skeleton

// Every string-keyed app runs the merge the plan asks for and reports its
// rounds: one p-way round, or log2(R) pairwise rounds over small_config()'s
// 8 reduce partitions. Both merges must produce the same bytes. The
// budgeted word count spills every round and folds its runs in after the
// configured merge.
TEST(KeyedApps, ReportTheMergeTheyRan) {
  wload::TextCorpusConfig corpus;
  corpus.total_bytes = 16 * 1024;
  const std::string text = wload::generate_text(corpus);
  const auto files = wload::generate_text_files(corpus, 6, 2048);
  // The two most frequent vocabulary words: grep is sure to match them.
  const std::vector<std::string> patterns = {
      wload::make_word(0, corpus.min_word_len, corpus.max_word_len),
      wload::make_word(1, corpus.min_word_len, corpus.max_word_len)};

  struct Case {
    const char* name;
    std::function<std::unique_ptr<core::Application>()> make;
    bool multi_file;
  };
  const Case cases[] = {
      {"grep", [&] { return std::make_unique<GrepApp>(patterns); }, false},
      {"invertedindex", [] { return std::make_unique<InvertedIndexApp>(); },
       true},
      {"wordcount", [] { return std::make_unique<WordCountApp>(); }, false},
      {"xwordcount",
       [] {
         return std::make_unique<WordCountApp>(
             4096, std::make_unique<containers::RunSet>(::testing::TempDir()));
       },
       false},
      {"paircount", [] { return std::make_unique<PairCountApp>(); }, false},
      {"doctermcount", [] { return std::make_unique<DocTermCountApp>(); },
       true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string outputs[2];
    for (MergeMode mode : {MergeMode::kPWay, MergeMode::kPairwise}) {
      JobConfig cfg = small_config();
      cfg.merge_mode = mode;
      ASSERT_EQ(cfg.reduce_partitions(), 8u);
      std::unique_ptr<core::Application> app = c.make();
      std::unique_ptr<ingest::IngestSource> src;
      if (c.multi_file) {
        src = std::make_unique<MultiFileSource>(files, 2);
      } else {
        src = std::make_unique<SingleDeviceSource>(
            mem(text), std::make_shared<LineFormat>(), 4096);
      }
      MapReduceJob job(*app, *src, cfg);
      auto result = job.run(core::ExecMode::kIngestMR);
      ASSERT_TRUE(result.ok()) << result.status().to_string();
      ASSERT_GT(app->result_count(), 0u);
      if (std::string_view(c.name) == "xwordcount") {
        EXPECT_GT(static_cast<WordCountApp&>(*app).runs_spilled(), 0u);
      }
      if (mode == MergeMode::kPWay) {
        EXPECT_EQ(result->merge_stats.num_rounds(), 1u);
      } else {
        EXPECT_GT(result->merge_stats.num_rounds(), 1u);
      }
      outputs[mode == MergeMode::kPairwise] = app->canonical_output();
    }
    EXPECT_EQ(outputs[0], outputs[1]);
  }
}

}  // namespace
}  // namespace supmr::apps
