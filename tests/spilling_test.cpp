// Tests for the spill run set and the budgeted word count that spills
// into it.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>

#include "apps/word_count.hpp"
#include "common/rng.hpp"
#include "containers/run_set.hpp"
#include "core/job.hpp"
#include "fault/fault_plan.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/fault_device.hpp"
#include "storage/mem_device.hpp"
#include "wload/text_corpus.hpp"

namespace supmr {
namespace {

namespace fs = std::filesystem;
using containers::RunSet;
using Pairs = std::vector<RunSet::Pair>;

std::unique_ptr<RunSet> run_set(const std::string& dir = ::testing::TempDir()) {
  return std::make_unique<RunSet>(dir);
}

std::map<std::string, std::uint64_t> collect(RunSet& runs, Pairs live = {}) {
  auto folded = runs.fold(std::move(live));
  EXPECT_TRUE(folded.ok()) << folded.status().to_string();
  std::map<std::string, std::uint64_t> out;
  if (folded.ok()) {
    for (const auto& [key, count] : *folded) out[key] += count;
  }
  return out;
}

// Runs `app` over `text` in `chunk_bytes` chunks.
StatusOr<core::JobResult> count_words(
    apps::WordCountApp& app, std::string text, std::uint64_t chunk_bytes,
    std::size_t threads,
    core::ExecMode mode = core::ExecMode::kIngestMR) {
  ingest::SingleDeviceSource src(
      std::make_shared<storage::MemDevice>(std::move(text), "m"),
      std::make_shared<ingest::LineFormat>(), chunk_bytes);
  core::JobConfig jc;
  jc.num_map_threads = threads;
  jc.num_reduce_threads = 2;
  core::MapReduceJob job(app, src, jc);
  return job.run(mode);
}

// A directory of the test's own, so it can count the run files in it.
std::string private_dir(const std::string& stem) {
  std::string dir = (fs::path(::testing::TempDir()) / (stem + "-XXXXXX"));
  EXPECT_NE(::mkdtemp(dir.data()), nullptr);
  return dir;
}

std::size_t files_in(const std::string& dir) {
  return std::distance(fs::directory_iterator(dir), fs::directory_iterator{});
}

// ------------------------------------------------------------ run set

TEST(SpillingHash, InMemoryPath) {
  // Under its budget a budgeted word count never spills.
  apps::WordCountApp app(1 << 20, run_set());
  ASSERT_TRUE(count_words(app, "a b a\nb a\n", 4, 2).ok());
  EXPECT_EQ(app.runs_spilled(), 0u);
  EXPECT_EQ(app.results(), (Pairs{{"a", 3}, {"b", 2}}));
}

TEST(SpillingHash, SpillAndCombineAcrossRuns) {
  auto runs = run_set();
  ASSERT_TRUE(runs->write({{"x", 1}, {"y", 2}}).ok());
  EXPECT_EQ(runs->size(), 1u);
  ASSERT_TRUE(runs->write({{"x", 10}, {"z", 3}}).ok());  // same key again
  EXPECT_EQ(runs->size(), 2u);
  auto out = collect(*runs, {{"x", 100}});  // and in the live results
  EXPECT_EQ(out.at("x"), 111u);
  EXPECT_EQ(out.at("y"), 2u);
  EXPECT_EQ(out.at("z"), 3u);
  EXPECT_EQ(runs->size(), 0u);  // folded runs are gone
}

TEST(SpillingHash, EmitsInKeyOrder) {
  auto runs = run_set();
  ASSERT_TRUE(runs->write({{"apple", 1}, {"pear", 1}}).ok());
  auto folded = runs->fold({{"banana", 1}});
  ASSERT_TRUE(folded.ok()) << folded.status().to_string();
  EXPECT_EQ(*folded, (Pairs{{"apple", 1}, {"banana", 1}, {"pear", 1}}));
}

TEST(SpillingHash, MatchesReferenceUnderRandomLoad) {
  Xoshiro256 rng(41);
  std::string text;
  std::map<std::string, std::uint64_t> ref;
  for (int op = 0; op < 30000; ++op) {
    const std::string key = "key" + std::to_string(rng.uniform(2000));
    text += key;
    text += op % 10 == 9 ? '\n' : ' ';
    ++ref[key];
  }
  apps::WordCountApp app(8 * 1024, run_set());
  ASSERT_TRUE(count_words(app, text, 8 * 1024, 3).ok());
  EXPECT_GT(app.runs_spilled(), 0u);
  const std::map<std::string, std::uint64_t> out(app.results().begin(),
                                                 app.results().end());
  EXPECT_EQ(out.size(), ref.size());
  EXPECT_EQ(out, ref);
}

TEST(SpillingHash, EmptyContainer) {
  apps::WordCountApp app(1024, run_set());
  ASSERT_TRUE(count_words(app, "", 4096, 2).ok());
  EXPECT_EQ(app.runs_spilled(), 0u);
  EXPECT_TRUE(app.results().empty());
}

TEST(SpillingHash, LongKeysSurviveSpill) {
  auto runs = run_set();
  const std::string long_key(255, 'q');
  ASSERT_TRUE(runs->write({{long_key, 7}}).ok());
  auto out = collect(*runs);
  EXPECT_EQ(out.at(long_key), 7u);
}

// A key longer than the run reader's buffer is read whole, not reported as
// a truncated record.
TEST(SpillingHash, KeyLongerThanReadBufferSurvivesSpill) {
  auto runs = run_set();
  const std::string huge_key(RunSet::kReadBytes + 5000, 'k');
  ASSERT_TRUE(runs->write({{huge_key, 3}, {"z", 1}}).ok());
  auto out = collect(*runs);
  EXPECT_EQ(out.at(huge_key), 3u);
  EXPECT_EQ(out.at("z"), 1u);
}

// A forked child shares its parent's addresses, so two twins spilling from
// the same run set object into one directory must still get distinct run
// files: each folds back exactly its own key. Pipes order the steps — the
// parent spills, then the child spills and folds, then the parent folds.
TEST(SpillingHash, ForkedTwinsMergeTheirOwnRuns) {
  auto runs = run_set();
  int to_child[2], to_parent[2];
  ASSERT_EQ(::pipe(to_child), 0);
  ASSERT_EQ(::pipe(to_parent), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(to_child[1]);
    ::close(to_parent[0]);
    char step = 0;
    bool ok = ::read(to_child[0], &step, 1) == 1;
    ok = ok && runs->write({{"child", 1}}).ok();
    auto folded = runs->fold({});
    ok = ok && folded.ok() && *folded == Pairs{{"child", 1}};
    ok = ::write(to_parent[1], &step, 1) == 1 && ok;
    ::_exit(ok ? 0 : 1);
  }
  ::close(to_child[0]);
  ::close(to_parent[1]);
  ASSERT_TRUE(runs->write({{"parent", 1}}).ok());
  char step = 0;
  ASSERT_EQ(::write(to_child[1], &step, 1), 1);
  ASSERT_EQ(::read(to_parent[0], &step, 1), 1);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ::close(to_child[1]);
  ::close(to_parent[0]);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "the child did not fold back exactly its own key";
  EXPECT_EQ(collect(*runs),
            (std::map<std::string, std::uint64_t>{{"parent", 1}}));
}

// A run file cut short inside a record fails the fold with an IoError
// instead of ending the run early. Run names are unique, not predictable,
// so the test spills into a directory of its own and finds the one file.
TEST(SpillingHash, TruncatedRunFailsMerge) {
  const std::string dir = private_dir("supmr-truncated");
  {
    auto runs = run_set(dir);
    ASSERT_TRUE(runs->write({{"alpha", 1}, {"beta", 2}}).ok());
    std::vector<fs::path> files(fs::directory_iterator(dir),
                                fs::directory_iterator{});
    ASSERT_EQ(files.size(), 1u);
    fs::resize_file(files[0], fs::file_size(files[0]) - 3);  // into a count
    const auto folded = runs->fold({});
    EXPECT_EQ(folded.status().code(), StatusCode::kIoError)
        << folded.status().to_string();
  }
  fs::remove_all(dir);
}

// ------------------------------------------------ budgeted word count

TEST(ExternalWordCount, MatchesInMemoryAppAtAnyBudget) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 96 * 1024;
  cfg.vocabulary = 3000;
  const std::string text = wload::generate_text(cfg);

  apps::WordCountApp reference;
  ASSERT_TRUE(count_words(reference, text, 8192, 4).ok());

  for (std::uint64_t budget : {std::uint64_t(16 * 1024), std::uint64_t(1 << 24)}) {
    apps::WordCountApp app(budget, run_set());
    auto result = count_words(app, text, 8192, 4);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(app.results(), reference.results()) << "budget=" << budget;
    if (budget == 16 * 1024) {
      EXPECT_GT(app.runs_spilled(), 0u);  // tight budget actually spilled
    }
  }
}

// A spill resets the table, yet the job's fold accounting counts every
// emit: the spilled tables' and the live one's.
TEST(ExternalWordCount, FoldAccountingCountsEveryEmit) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 96 * 1024;
  cfg.vocabulary = 3000;
  const std::string text = wload::generate_text(cfg);
  apps::WordCountApp whole;
  auto unbudgeted = count_words(whole, text, 8192, 4);
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status().to_string();

  apps::WordCountApp app(16 * 1024, run_set());
  auto result = count_words(app, text, 8192, 4);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_GT(app.runs_spilled(), 0u);
  EXPECT_EQ(result->combine.emits, app.words_mapped());
  EXPECT_EQ(result->combine.emits, unbudgeted->combine.emits);
  EXPECT_EQ(result->combine.bytes_emitted, unbudgeted->combine.bytes_emitted);
  EXPECT_GT(result->combine.keys_folded, 0u);
  // A key a spilled table already held enters the merge again from the
  // next table.
  EXPECT_GE(result->combine.bytes_into_merge,
            unbudgeted->combine.bytes_into_merge);
}

TEST(ExternalWordCount, OriginalRuntimeModeWorksToo) {
  apps::WordCountApp app(1 << 20, run_set());
  ASSERT_TRUE(
      count_words(app, "a b a\nc a b\n", 0, 2, core::ExecMode::kOriginal).ok());
  ASSERT_EQ(app.results().size(), 3u);
  EXPECT_EQ(app.results()[0], (apps::WordCountApp::Result{"a", 3}));
}

// A spill gives the table back: with a budget above a fresh table's
// footprint, the footprint right after each spill is within the budget, so
// the rounds after it map into memory instead of spilling again at once.
TEST(ExternalWordCount, SpillReleasesTheTable) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 256 * 1024;
  cfg.vocabulary = 20000;
  const std::string text = wload::generate_text(cfg);
  constexpr std::uint64_t kBudget = 256 * 1024;
  constexpr std::size_t kChunk = 16 * 1024;
  constexpr std::size_t kMappers = 2;
  apps::WordCountApp app(kBudget, run_set());
  app.init(kMappers);
  ASSERT_LT(app.memory_bytes(), kBudget);
  std::size_t rounds = 0, spills = 0;
  for (std::size_t off = 0; off < text.size(); off += kChunk, ++rounds) {
    ingest::IngestChunk chunk;
    chunk.set_view(std::span<const char>(text).subspan(
        off, std::min(kChunk, text.size() - off)));
    ASSERT_TRUE(app.prepare_round(chunk).ok());
    if (app.runs_spilled() > spills) {
      spills = app.runs_spilled();
      EXPECT_LE(app.memory_bytes(), kBudget) << "after spill " << spills;
    }
    for (std::size_t t = 0; t < app.round_tasks(); ++t)
      app.map_task(t, t % kMappers);
  }
  EXPECT_GT(spills, 0u);
  EXPECT_LT(spills, rounds / 2);
}

// The budgeted job leaves no run file behind, whether it succeeds or fails
// after a spill: a permanent fault in the fifth chunk fails the job with runs
// on disk, and destroying the app removes them. The chunks are larger than
// the planner's 64 KiB boundary scan, so planning never reads the fault.
TEST(ExternalWordCount, LeavesNoRunFileBehind) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 768 * 1024;
  cfg.vocabulary = 3000;
  const std::string text = wload::generate_text(cfg);
  constexpr std::uint64_t kChunk = 128 * 1024;
  const std::string dir = private_dir("supmr-norun");
  {
    apps::WordCountApp app(16 * 1024, run_set(dir));
    ASSERT_TRUE(count_words(app, text, kChunk, 2).ok());
    EXPECT_GT(app.runs_spilled(), 0u);
  }
  EXPECT_EQ(files_in(dir), 0u);
  {
    auto plan = fault::FaultPlan::parse("permanent=600000-600100");
    ASSERT_TRUE(plan.ok()) << plan.status().to_string();
    ingest::SingleDeviceSource src(
        std::make_shared<storage::FaultDevice>(
            std::make_shared<storage::MemDevice>(text, "m"), *plan),
        std::make_shared<ingest::LineFormat>(), kChunk);
    core::JobConfig jc;
    jc.num_map_threads = 2;
    jc.num_reduce_threads = 2;
    apps::WordCountApp app(16 * 1024, run_set(dir));
    core::MapReduceJob job(app, src, jc);
    EXPECT_FALSE(job.run(core::ExecMode::kIngestMR).ok());
    EXPECT_GT(app.runs_spilled(), 0u);
    EXPECT_GT(files_in(dir), 0u);  // the failed job's runs are on disk
  }
  EXPECT_EQ(files_in(dir), 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace supmr
