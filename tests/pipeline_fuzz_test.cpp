// Randomized end-to-end stress: random record layouts, chunk sizes, sources,
// and fault positions through the full runtime. Every configuration must
// either complete with reference-matching results or fail cleanly with a
// Status — never hang, crash, or silently drop data.
#include <gtest/gtest.h>

#include <map>

#include "apps/tokenize.hpp"
#include "apps/word_count.hpp"
#include "common/rng.hpp"
#include "core/job.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/fault_device.hpp"
#include "storage/mem_device.hpp"

namespace supmr {
namespace {

using storage::MemDevice;

// Random text with words/lines of random lengths, including empty lines and
// runs of delimiters.
std::string random_text(Xoshiro256& rng, std::size_t approx_bytes) {
  std::string out;
  while (out.size() < approx_bytes) {
    const int choice = int(rng.uniform(10));
    if (choice == 0) {
      out.push_back('\n');  // empty line
    } else if (choice == 1) {
      out.append(rng.uniform(4), ' ');
    } else {
      const std::size_t len = 1 + rng.uniform(12);
      for (std::size_t i = 0; i < len; ++i)
        out.push_back(static_cast<char>('a' + rng.uniform(26)));
      out.push_back(rng.uniform(5) ? ' ' : '\n');
    }
  }
  out.push_back('\n');
  return out;
}

std::map<std::string, std::uint64_t> reference_counts(
    const std::string& text) {
  std::map<std::string, std::uint64_t> counts;
  apps::tokenize_words(std::span<const char>(text.data(), text.size()),
                       [&](std::string_view w, std::uint64_t) {
                         ++counts[std::string(w)];
                       });
  return counts;
}

void expect_matches(const apps::WordCountApp& app,
                    const std::map<std::string, std::uint64_t>& ref) {
  ASSERT_EQ(app.results().size(), ref.size());
  std::size_t i = 0;
  for (const auto& [word, count] : ref) {
    EXPECT_EQ(app.results()[i].first, word);
    EXPECT_EQ(app.results()[i].second, count);
    ++i;
  }
}

class PipelineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PipelineFuzz, RandomConfigurationsProduceCorrectCounts) {
  Xoshiro256 rng(GetParam() * 1000003ULL);
  const std::string text = random_text(rng, 4000 + rng.uniform(60000));
  const auto ref = reference_counts(text);

  core::JobConfig jc;
  jc.num_map_threads = 1 + rng.uniform(6);
  jc.num_reduce_threads = 1 + rng.uniform(3);
  jc.merge_mode = rng.uniform(2) ? core::MergeMode::kPWay
                                 : core::MergeMode::kPairwise;
  jc.unpooled_map_waves = rng.uniform(4) == 0;

  const std::uint64_t chunk = rng.uniform(3) == 0
                                  ? 0
                                  : 1 + rng.uniform(20000);
  apps::WordCountApp app;

  if (rng.uniform(3) == 0) {
    // Multi-file source over random slices of the corpus as "files", 0-3
    // files per chunk (0 puts every file in one chunk).
    std::vector<std::shared_ptr<const storage::Device>> files;
    std::size_t pos = 0;
    while (pos < text.size()) {
      // Slice at line boundaries so words are not torn between files.
      std::size_t end = std::min(pos + 1 + rng.uniform(9000), text.size());
      while (end < text.size() && text[end - 1] != '\n') ++end;
      files.push_back(
          std::make_shared<MemDevice>(text.substr(pos, end - pos), "f"));
      pos = end;
    }
    ingest::MultiFileSource src(files, rng.uniform(4));
    core::MapReduceJob job(app, src, jc);
    auto result = job.run(core::ExecMode::kIngestMR);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
  } else {
    ingest::SingleDeviceSource src(std::make_shared<MemDevice>(text, "m"),
                                   std::make_shared<ingest::LineFormat>(),
                                   chunk);
    core::MapReduceJob job(app, src, jc);
    auto result = rng.uniform(2) ? job.run(core::ExecMode::kIngestMR) : job.run(core::ExecMode::kOriginal);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
  }
  expect_matches(app, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz, ::testing::Range(1, 25));

class FaultFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FaultFuzz, RandomFaultsFailCleanlyOrSucceed) {
  Xoshiro256 rng(GetParam() * 7777ULL);
  const std::string text = random_text(rng, 30000);
  const auto ref = reference_counts(text);

  MemDevice base(text);
  // Fault a random call index; planning performs a data-dependent number of
  // probe reads, so this lands anywhere in plan or ingest.
  fault::FaultPlan fplan;
  fplan.fail_calls.push_back(rng.uniform(40));
  storage::FaultDevice fault(&base, fplan);
  auto dev = std::shared_ptr<const storage::Device>(
      &fault, [](const storage::Device*) {});

  apps::WordCountApp app;
  ingest::SingleDeviceSource src(dev, std::make_shared<ingest::LineFormat>(),
                                 500 + rng.uniform(5000));
  core::JobConfig jc;
  jc.num_map_threads = 2;
  jc.num_reduce_threads = 2;
  core::MapReduceJob job(app, src, jc);
  auto result = job.run(core::ExecMode::kIngestMR);
  if (result.ok()) {
    // The fault landed past the job's reads — results must still be right.
    expect_matches(app, ref);
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz, ::testing::Range(1, 17));

}  // namespace
}  // namespace supmr
