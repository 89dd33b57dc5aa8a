// Golden tests for the chain sinks (apps/join_sink.hpp, docs/graphs.md).
//
// The graph lattice compares each chain with ref::run_graph, which runs the
// same PmiApp and TfIdfApp, so it cannot see a change to the totals or the
// number formatting that both sides make. Here each sink reads a
// hand-built upstream payload whose rows are shuffled, and its bytes must
// equal what this file computes on its own — std::map for the order, the
// formula in doubles, snprintf("%.6f") for the digits — at 1 and 4 threads
// under both merges. The writer sweep checks score_lines against
// snprintf("%.6f") over a million seeded values.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/pmi.hpp"
#include "apps/tfidf.hpp"
#include "common/rng.hpp"
#include "core/job.hpp"
#include "core/replay.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/mem_device.hpp"

namespace supmr::apps {
namespace {

std::string fixed6(double v) {
  char buf[400];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

// Runs `app` over `input` (one line per row) in small chunks, so the sink
// maps many rounds, and returns its canonical output.
std::string run_sink(JoinSink& app, std::string input, std::size_t threads,
                     core::MergeMode merge) {
  auto device =
      std::make_shared<storage::MemDevice>(std::move(input), "sink-golden");
  ingest::SingleDeviceSource source(
      device, std::make_shared<ingest::LineFormat>(), 4096);
  core::JobConfig cfg;
  cfg.num_map_threads = threads;
  cfg.num_reduce_threads = threads;
  cfg.merge_mode = merge;
  core::MapReduceJob job(app, source, cfg);
  auto result = job.run(core::ExecMode::kIngestMR);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  return app.canonical_output();
}

std::string shuffled(std::vector<std::string> lines, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::shuffle(lines.begin(), lines.end(), rng);
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

// A lowercase word of 1 to 24 letters, so some keys outgrow the string's
// inline buffer.
std::string random_word(Xoshiro256& rng) {
  std::string w(1 + rng.uniform(24), 'a');
  for (char& c : w) c = static_cast<char>('a' + rng.uniform(26));
  return w;
}

struct Geometry {
  std::size_t threads;
  core::MergeMode merge;
};

const Geometry kGeometries[] = {
    {1, core::MergeMode::kPWay},
    {1, core::MergeMode::kPairwise},
    {4, core::MergeMode::kPWay},
    {4, core::MergeMode::kPairwise},
};

// ------------------------------------------------------------------- PMI

TEST(SinkGolden, PmiMatchesIndependentJoin) {
  Xoshiro256 rng(2711);
  std::map<std::string, std::uint64_t> unigrams;
  std::vector<std::string> vocab;
  while (unigrams.size() < 1500) {
    const std::string w = random_word(rng);
    if (unigrams.emplace(w, 1 + rng.uniform(5000)).second) vocab.push_back(w);
  }
  std::map<std::string, std::uint64_t> bigrams;
  while (bigrams.size() < 6000) {
    // One pair in eight names a word the unigram table lacks.
    const std::string w2 = rng.uniform(8) == 0
                               ? random_word(rng) + "0"
                               : vocab[rng.uniform(vocab.size())];
    bigrams.emplace(vocab[rng.uniform(vocab.size())] + " " + w2,
                    1 + rng.uniform(300));
  }

  std::vector<std::string> lines;
  double n_words = 0, n_pairs = 0;
  for (const auto& [w, c] : unigrams) {
    lines.push_back(w + "\t" + std::to_string(c));
    n_words += static_cast<double>(c);
  }
  for (const auto& [p, c] : bigrams) {
    lines.push_back(p + "\t" + std::to_string(c));
    n_pairs += static_cast<double>(c);
  }
  std::string expected;
  for (const auto& [p, c] : bigrams) {
    const std::size_t space = p.find(' ');
    const auto c1 = unigrams.find(p.substr(0, space));
    const auto c2 = unigrams.find(p.substr(space + 1));
    if (c1 == unigrams.end() || c2 == unigrams.end()) continue;
    const double joint = static_cast<double>(c) / n_pairs;
    const double indep = (static_cast<double>(c1->second) / n_words) *
                         (static_cast<double>(c2->second) / n_words);
    expected += p + "\t" + fixed6(std::log(joint / indep)) + "\n";
  }
  const std::string input = shuffled(lines, 2712);

  for (const Geometry& g : kGeometries) {
    SCOPED_TRACE(testing::Message() << g.threads << " threads, "
                                    << core::merge_mode_name(g.merge));
    PmiApp app;
    EXPECT_EQ(run_sink(app, input, g.threads, g.merge), expected);
    EXPECT_EQ(app.malformed_lines(), 0u);
  }
}

// ---------------------------------------------------------------- TF-IDF

TEST(SinkGolden, TfIdfMatchesIndependentJoin) {
  Xoshiro256 rng(2713);
  // File ids of one to three digits, so "1\t..." and "10\t..." interleave
  // with index words that are themselves digits.
  std::vector<std::string> vocab;
  for (int i = 0; i < 400; ++i) vocab.push_back(random_word(rng));
  for (const char* digits : {"3", "10", "7"}) vocab.push_back(digits);
  std::map<std::string, std::uint64_t> terms;  // "<file_id>\t<word>" -> count
  std::map<std::string, std::set<std::string>> postings;  // word -> file ids
  for (int doc = 0; doc < 120; ++doc) {
    const std::string id = std::to_string(doc * 7 % 130);
    for (int t = 0; t < 40; ++t) {
      const std::string& w = vocab[rng.uniform(vocab.size())];
      terms[id + "\t" + w] += 1 + rng.uniform(20);
      postings[w].insert(id);
    }
  }
  // A doc-term line whose word the index lacks, and an index-only word.
  terms["5\tunindexed"] = 4;
  postings["indexonly"].insert("5");

  std::vector<std::string> lines;
  for (const auto& [key, c] : terms)
    lines.push_back(key + "\t" + std::to_string(c));
  std::map<std::string, std::size_t> df;
  for (const auto& [w, ids] : postings) {
    std::string csv;
    for (const std::string& id : ids) csv += (csv.empty() ? "" : ",") + id;
    lines.push_back(w + "\t" + csv);
    df[w] = ids.size();
  }
  std::set<std::string> docs;
  for (const auto& [key, c] : terms) docs.insert(key.substr(0, key.find('\t')));
  const double n_docs = static_cast<double>(docs.size());
  std::string expected;
  for (const auto& [key, c] : terms) {
    const auto it = df.find(key.substr(key.find('\t') + 1));
    if (it == df.end()) continue;
    expected += key + "\t" +
                fixed6(static_cast<double>(c) *
                       std::log(n_docs / static_cast<double>(it->second))) +
                "\n";
  }
  const std::string input = shuffled(lines, 2714);

  for (const Geometry& g : kGeometries) {
    SCOPED_TRACE(testing::Message() << g.threads << " threads, "
                                    << core::merge_mode_name(g.merge));
    TfIdfApp app;
    EXPECT_EQ(run_sink(app, input, g.threads, g.merge), expected);
    EXPECT_EQ(app.malformed_lines(), 0u);
  }
}

// ----------------------------------------------------------- count fields

// Both sinks read their counts through parse_decimal: the largest u64 is a
// count, and anything that is not a whole decimal u64 marks the line
// malformed instead of wrapping.
TEST(SinkGolden, CountFieldsAreWholeU64s) {
  const std::string counts[] = {"18446744073709551615", "18446744073709551616",
                                "", "12a", "+5"};
  for (const std::string& count : counts) {
    SCOPED_TRACE("count \"" + count + "\"");
    const std::uint64_t malformed = count == counts[0] ? 0 : 1;
    PmiApp pmi;
    run_sink(pmi, "w\t" + count + "\n", 1, core::MergeMode::kPWay);
    EXPECT_EQ(pmi.malformed_lines(), malformed);
    TfIdfApp tfidf;
    run_sink(tfidf, "0\tw\t" + count + "\n", 1, core::MergeMode::kPWay);
    EXPECT_EQ(tfidf.malformed_lines(), malformed);
  }
}

// ---------------------------------------------------------------- writer

TEST(SinkGolden, WriterMatchesSnprintfOverAMillionValues) {
  Xoshiro256 rng(2715);
  std::vector<std::pair<std::string, double>> rows;
  auto add = [&](double v) { rows.emplace_back("k", v); };
  for (int i = 0; i < 200000; ++i) {
    // Any bit pattern: subnormals, every exponent up to DBL_MAX, inf, nan.
    add(std::bit_cast<double>(rng()));
    // Exact binary ties at the sixth decimal and past it.
    const double k = static_cast<double>(static_cast<std::int64_t>(
                         rng.uniform(1u << 24)) - (1 << 23));
    add(k * 0x1p-7);
    add(k * 0x1p-20);
    // Negatives that print -0.000000, and values near the PMI range.
    add(-static_cast<double>(rng.uniform(5000000)) * 1e-13);
    add((static_cast<double>(rng.uniform(1u << 30)) / (1u << 30) - 0.5) * 100);
  }
  for (int e = 0; e <= 300; ++e) {
    for (int i = 0; i < 40; ++i) {
      const double mantissa =
          1 + static_cast<double>(rng.uniform(1u << 30)) / (1u << 30) * 9;
      add(mantissa * std::pow(10.0, e));
      add(-mantissa * std::pow(10.0, e));
    }
  }
  for (double v : {0.0, -0.0, 1e9, -1e9, std::nextafter(1e9, 0.0),
                   999999999.9999995, -999999999.9999996, 0.0000005,
                   -0.0000005, 2.5e-7, 1.0000005, 1e300, -1e300})
    add(v);
  ASSERT_GE(rows.size(), 1000000u);

  std::string expected;
  for (const auto& [key, value] : rows)
    expected += key + "\t" + fixed6(value) + "\n";
  const std::string got = score_lines(rows);
  if (got != expected) {
    // Name the first differing value.
    std::size_t line_start = 0;
    const std::size_t n = std::min(got.size(), expected.size());
    for (std::size_t i = 0; i < n && got[i] == expected[i]; ++i)
      if (got[i] == '\n') line_start = i + 1;
    ADD_FAILURE() << "first difference in the line starting with \""
                  << expected.substr(line_start, 40) << "\": got \""
                  << got.substr(line_start, 40) << "\"";
  }
}

TEST(SinkGolden, WriterOfNothingIsEmpty) { EXPECT_EQ(score_lines({}), ""); }

}  // namespace
}  // namespace supmr::apps
