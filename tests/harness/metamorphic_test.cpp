// Metamorphic layer of the conformance harness (docs/testing.md): instead of
// comparing against an oracle value, these tests assert invariances the
// runtime must satisfy — output independence from chunk size and thread
// count; input permutation invariance for commutative apps;
// and degrade-mode output equal to the oracle on the surviving byte ranges.
// Every cell still passes through run_cell(), so each equality here is ALSO
// checked against the sequential reference for free.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tests/harness/harness_util.hpp"

namespace supmr::harness {
namespace {

// Runs a cell and returns its canonical output, asserting reference
// conformance along the way.
std::string cell_output(const core::ReplaySpec& spec,
                        const std::string& name,
                        const std::string* corpus_override = nullptr) {
  auto outcome = ref::run_cell(spec, corpus_override);
  EXPECT_TRUE(outcome.ok()) << name << ": " << outcome.status().to_string();
  if (!outcome.ok()) return {};
  EXPECT_TRUE(outcome->match)
      << name << " diverged from the reference:\n" << outcome->diff;
  return outcome->sut_canonical;
}

TEST(Metamorphic, ChunkSizeIndependence) {
  // Same corpus, same config, different ingest chunking — the output may not
  // depend on where chunk boundaries fall.
  core::ReplaySpec base = spec_wordcount(20);
  base.mode = core::ExecMode::kIngestMR;
  base.merge_mode = core::MergeMode::kPWay;
  std::vector<std::string> outs;
  for (std::size_t chunk : {std::size_t(4) * 1024, std::size_t(16) * 1024,
                            std::size_t(56) * 1024, std::size_t(0)}) {
    core::ReplaySpec spec = base;
    spec.chunk_bytes = chunk;
    outs.push_back(
        cell_output(spec, "wordcount-chunk-" + std::to_string(chunk)));
  }
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_EQ(outs[0], outs[i])
        << "wordcount output depends on chunk size (variant " << i << ")";
  }
}

TEST(Metamorphic, ThreadCountIndependence) {
  core::ReplaySpec base = spec_sort(21);
  base.mode = core::ExecMode::kIngestMR;
  base.merge_mode = core::MergeMode::kPWay;
  std::vector<std::string> outs;
  for (int threads : {1, 3, 6}) {
    core::ReplaySpec spec = base;
    spec.threads = threads;
    outs.push_back(cell_output(spec, "sort-threads-" + std::to_string(threads)));
  }
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_EQ(outs[0], outs[i])
        << "sort output depends on thread count (variant " << i << ")";
  }
}

// Fisher-Yates over the corpus's record units with the repo's seeded rng.
std::string permute_units(const std::vector<std::string>& units,
                          std::uint64_t seed) {
  std::vector<std::string> shuffled = units;
  Xoshiro256 rng(seed);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.uniform(i)]);
  }
  std::string out;
  for (const std::string& u : units) out.reserve(out.size() + u.size());
  for (const std::string& u : shuffled) out += u;
  return out;
}

std::vector<std::string> split_lines_keep_newline(const std::string& s) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < s.size()) {
    std::size_t nl = s.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(s.substr(start));
      break;
    }
    lines.push_back(s.substr(start, nl - start + 1));
    start = nl + 1;
  }
  return lines;
}

void check_line_permutation_invariance(core::ReplaySpec spec,
                                       const std::string& label) {
  spec.mode = core::ExecMode::kIngestMR;
  spec.merge_mode = core::MergeMode::kPWay;
  auto corpus = ref::make_corpus(spec);
  ASSERT_TRUE(corpus.ok()) << corpus.status().to_string();
  const std::string permuted =
      permute_units(split_lines_keep_newline(*corpus), harness_seed() ^ 0x9e37);
  ASSERT_EQ(corpus->size(), permuted.size());
  const std::string base_out = cell_output(spec, label + "-original");
  const std::string perm_out =
      cell_output(spec, label + "-permuted", &permuted);
  EXPECT_EQ(base_out, perm_out)
      << label << " output is not invariant under input line permutation";
}

TEST(Metamorphic, WordCountPermutationInvariance) {
  check_line_permutation_invariance(spec_wordcount(23), "wordcount-perm");
}

TEST(Metamorphic, HistogramPermutationInvariance) {
  check_line_permutation_invariance(spec_histogram(24), "histogram-perm");
}

TEST(Metamorphic, GrepPermutationInvariance) {
  // Patterns are matched within lines, so counts are line-permutation
  // invariant by construction.
  check_line_permutation_invariance(spec_grep(25), "grep-perm");
}

TEST(Metamorphic, SortRecordPermutationInvariance) {
  // Sorting is a permutation-erasing operation: shuffling the input records
  // must leave the (canonicalized) sorted output untouched.
  core::ReplaySpec spec = spec_sort(26);
  spec.mode = core::ExecMode::kIngestMR;
  spec.merge_mode = core::MergeMode::kPWay;
  auto corpus = ref::make_corpus(spec);
  ASSERT_TRUE(corpus.ok()) << corpus.status().to_string();
  ASSERT_EQ(corpus->size() % spec.record_bytes, 0u);
  std::vector<std::string> records;
  for (std::size_t off = 0; off < corpus->size(); off += spec.record_bytes) {
    records.push_back(corpus->substr(off, spec.record_bytes));
  }
  const std::string permuted = permute_units(records, harness_seed() ^ 0x517);
  const std::string base_out = cell_output(spec, "sort-perm-original");
  const std::string perm_out =
      cell_output(spec, "sort-perm-permuted", &permuted);
  EXPECT_EQ(base_out, perm_out)
      << "sort output is not invariant under record permutation";
}

// Record-doubling metamorphic relation for Sum-combined apps: feeding every
// input line twice must exactly double every count while leaving the key set
// and its canonical ordering untouched, through the hash container's
// emit-time fold (each cell is still oracle-checked by run_cell on the way).
void check_doubling_doubles_counts(core::ReplaySpec spec,
                                   const std::string& label) {
  spec.mode = core::ExecMode::kIngestMR;
  spec.merge_mode = core::MergeMode::kPWay;
  auto corpus = ref::make_corpus(spec);
  ASSERT_TRUE(corpus.ok()) << corpus.status().to_string();
  std::string doubled;
  doubled.reserve(corpus->size() * 2);
  for (const std::string& line : split_lines_keep_newline(*corpus)) {
    doubled += line;
    if (line.empty() || line.back() != '\n') doubled += '\n';
    doubled += line;
  }

  auto parse = [](const std::string& out) {
    std::vector<std::pair<std::string, std::uint64_t>> rows;
    for (const std::string& line : split_lines_keep_newline(out)) {
      const std::size_t tab = line.find('\t');
      if (tab == std::string::npos) continue;
      rows.emplace_back(line.substr(0, tab),
                        std::strtoull(line.c_str() + tab + 1, nullptr, 10));
    }
    return rows;
  };
  const auto base = parse(cell_output(spec, label + "-single"));
  const auto twice =
      parse(cell_output(spec, label + "-doubled", &doubled));
  ASSERT_EQ(base.size(), twice.size())
      << label << ": doubling the input changed the key set";
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].first, twice[i].first)
        << label << ": key order changed at row " << i;
    EXPECT_EQ(base[i].second * 2, twice[i].second)
        << label << ": count for '" << base[i].first
        << "' did not exactly double";
  }
}

TEST(Metamorphic, DoublingDoublesCountsDefaultContainer) {
  check_doubling_doubles_counts(spec_wordcount(36), "wordcount-x2-default");
}

TEST(Metamorphic, DoublingDoublesCountsPairCountCombining) {
  // Bigram keys, most past the slot's 12 inline bytes: the doubled corpus
  // doubles every within-line pair without creating cross-boundary pairs
  // (pairs never span lines).
  check_doubling_doubles_counts(spec_paircount(37), "paircount-x2");
}

// Degrade differential: a permanent fault inside chunk 0's data region (below
// the ~64KB boundary-probe window, so planning stays fail-fast clean) forces
// the pipeline to skip that chunk; the output must equal the oracle run on
// the surviving byte ranges, and at least one chunk must actually have been
// skipped or the cell is vacuous.
void check_degrade_cell(core::ReplaySpec spec, const std::string& label) {
  spec.mode = core::ExecMode::kIngestMR;
  spec.chunk_bytes = 64 * 1024;
  spec.degrade = true;
  spec.fault_plan = "permanent=1000-2000";
  spec.retry_attempts = 2;
  spec.corpus.bytes = 256 * 1024;  // 4 chunks; poison lands in chunk 0
  auto outcome = ref::run_cell(spec);
  ASSERT_TRUE(outcome.ok()) << label << ": " << outcome.status().to_string();
  EXPECT_TRUE(outcome->match)
      << label << " degrade output diverges from the surviving-range oracle:\n"
      << outcome->diff;
  EXPECT_GE(outcome->job.chunks_skipped, std::size_t(1))
      << label << ": fault plan did not cause any chunk skip — vacuous cell";
  EXPECT_GT(outcome->job.bytes_skipped, std::size_t(0)) << label;
}

TEST(Metamorphic, DegradeWordCount) {
  core::ReplaySpec spec = spec_wordcount(27);
  spec.merge_mode = core::MergeMode::kPWay;
  check_degrade_cell(spec, "degrade-wordcount");
}

TEST(Metamorphic, DegradeGrep) {
  core::ReplaySpec spec = spec_grep(28);
  spec.merge_mode = core::MergeMode::kPairwise;
  check_degrade_cell(spec, "degrade-grep");
}

TEST(Metamorphic, DegradeSort) {
  core::ReplaySpec spec = spec_sort(29);
  spec.merge_mode = core::MergeMode::kPWay;
  check_degrade_cell(spec, "degrade-sort");
}

}  // namespace
}  // namespace supmr::harness
