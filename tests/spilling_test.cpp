// Tests for the spilling hash container and external word count.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>

#include "apps/external_word_count.hpp"
#include "common/rng.hpp"
#include "apps/word_count.hpp"
#include "containers/spilling_hash.hpp"
#include "core/job.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/mem_device.hpp"
#include "wload/text_corpus.hpp"

namespace supmr {
namespace {

using containers::SpillingHashContainer;

SpillingHashContainer::Options opts(std::uint64_t budget) {
  SpillingHashContainer::Options o;
  o.memory_budget_bytes = budget;
  o.spill_dir = ::testing::TempDir();
  o.merge_read_bytes = 4096;
  return o;
}

std::map<std::string, std::uint64_t> collect(SpillingHashContainer& c) {
  std::map<std::string, std::uint64_t> out;
  EXPECT_TRUE(c.merge_reduce([&](std::string_view k, std::uint64_t v) {
                 out[std::string(k)] += v;
               }).ok());
  return out;
}

TEST(SpillingHash, InMemoryPath) {
  SpillingHashContainer c;
  c.init(2, opts(1 << 20));
  c.emit(0, "a", 1);
  c.emit(1, "a", 2);
  c.emit(0, "b", 5);
  EXPECT_TRUE(c.maybe_spill().ok());
  EXPECT_EQ(c.runs_spilled(), 0u);  // tiny: under budget
  auto out = collect(c);
  EXPECT_EQ(out.at("a"), 3u);
  EXPECT_EQ(out.at("b"), 5u);
  EXPECT_EQ(out.size(), 2u);
}

TEST(SpillingHash, SpillAndCombineAcrossRuns) {
  SpillingHashContainer c;
  c.init(2, opts(1));  // everything over budget
  c.emit(0, "x", 1);
  c.emit(1, "y", 2);
  ASSERT_TRUE(c.spill().ok());
  EXPECT_EQ(c.runs_spilled(), 1u);
  c.emit(0, "x", 10);  // same key again, post-spill
  c.emit(1, "z", 3);
  ASSERT_TRUE(c.spill().ok());
  EXPECT_EQ(c.runs_spilled(), 2u);
  c.emit(0, "x", 100);  // and in the live stripes
  auto out = collect(c);
  EXPECT_EQ(out.at("x"), 111u);
  EXPECT_EQ(out.at("y"), 2u);
  EXPECT_EQ(out.at("z"), 3u);
}

TEST(SpillingHash, EmitsInKeyOrder) {
  SpillingHashContainer c;
  c.init(1, opts(1));
  c.emit(0, "pear", 1);
  c.emit(0, "apple", 1);
  ASSERT_TRUE(c.spill().ok());
  c.emit(0, "banana", 1);
  std::vector<std::string> order;
  ASSERT_TRUE(c.merge_reduce([&](std::string_view k, std::uint64_t) {
                 order.emplace_back(k);
               }).ok());
  EXPECT_EQ(order,
            (std::vector<std::string>{"apple", "banana", "pear"}));
}

TEST(SpillingHash, MatchesReferenceUnderRandomLoad) {
  Xoshiro256 rng(41);
  SpillingHashContainer c;
  c.init(3, opts(8 * 1024));
  std::map<std::string, std::uint64_t> ref;
  for (int op = 0; op < 30000; ++op) {
    const std::string key = "key" + std::to_string(rng.uniform(2000));
    const std::uint64_t v = 1 + rng.uniform(5);
    c.emit(rng.uniform(3), key, v);
    ref[key] += v;
    if (op % 5000 == 4999) ASSERT_TRUE(c.maybe_spill().ok());
  }
  EXPECT_GT(c.runs_spilled(), 0u);
  auto out = collect(c);
  EXPECT_EQ(out.size(), ref.size());
  EXPECT_EQ(out, ref);
}

TEST(SpillingHash, EmptyContainer) {
  SpillingHashContainer c;
  c.init(2, opts(1024));
  int calls = 0;
  ASSERT_TRUE(c.merge_reduce([&](std::string_view, std::uint64_t) {
                 ++calls;
               }).ok());
  EXPECT_EQ(calls, 0);
}

TEST(SpillingHash, LongKeysSurviveSpill) {
  SpillingHashContainer c;
  c.init(1, opts(1));
  const std::string long_key(255, 'q');
  c.emit(0, long_key, 7);
  ASSERT_TRUE(c.spill().ok());
  auto out = collect(c);
  EXPECT_EQ(out.at(long_key), 7u);
}

// A key longer than the run reader's buffer (opts() reads 4 KiB at a
// time) is read whole, not reported as a truncated record.
TEST(SpillingHash, KeyLongerThanReadBufferSurvivesSpill) {
  SpillingHashContainer c;
  c.init(1, opts(1));
  const std::string huge_key(5000, 'k');
  c.emit(0, huge_key, 3);
  c.emit(0, "z", 1);
  ASSERT_TRUE(c.spill().ok());
  auto out = collect(c);
  EXPECT_EQ(out.at(huge_key), 3u);
  EXPECT_EQ(out.at("z"), 1u);
}

// A forked child shares its parent's addresses, so two twins spilling from
// the same container object into one directory must still get distinct run
// files: each merges back exactly its own key. Pipes order the steps — the
// parent spills, then the child spills and merges, then the parent merges.
TEST(SpillingHash, ForkedTwinsMergeTheirOwnRuns) {
  SpillingHashContainer c;
  c.init(1, opts(1));
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
    c.emit(0, "child", 1);
    ok = ok && c.spill().ok();
    std::map<std::string, std::uint64_t> out;
    ok = ok && c.merge_reduce([&](std::string_view k, std::uint64_t v) {
                  out[std::string(k)] += v;
                }).ok();
    ok = ok && out == std::map<std::string, std::uint64_t>{{"child", 1}};
    ok = ::write(to_parent[1], &step, 1) == 1 && ok;
    ::_exit(ok ? 0 : 1);
  }
  ::close(to_child[0]);
  ::close(to_parent[1]);
  c.emit(0, "parent", 1);
  ASSERT_TRUE(c.spill().ok());
  char step = 0;
  ASSERT_EQ(::write(to_child[1], &step, 1), 1);
  ASSERT_EQ(::read(to_parent[0], &step, 1), 1);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ::close(to_child[1]);
  ::close(to_parent[0]);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "the child did not merge back exactly its own key";
  EXPECT_EQ(collect(c), (std::map<std::string, std::uint64_t>{{"parent", 1}}));
}

// A run file cut short inside a record fails the merge with an IoError
// instead of ending the run early. Run names are unique, not predictable,
// so the test spills into a directory of its own and finds the one file.
TEST(SpillingHash, TruncatedRunFailsMerge) {
  namespace fs = std::filesystem;
  std::string dir =
      (fs::path(::testing::TempDir()) / "supmr-truncated-XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  {
    SpillingHashContainer::Options o = opts(1);
    o.spill_dir = dir;
    SpillingHashContainer c;
    c.init(1, o);
    c.emit(0, "alpha", 1);
    c.emit(0, "beta", 2);
    ASSERT_TRUE(c.spill().ok());
    std::vector<fs::path> runs(fs::directory_iterator(dir),
                               fs::directory_iterator{});
    ASSERT_EQ(runs.size(), 1u);
    fs::resize_file(runs[0], fs::file_size(runs[0]) - 3);  // into a count
    const Status st = c.merge_reduce([](std::string_view, std::uint64_t) {});
    EXPECT_EQ(st.code(), StatusCode::kIoError) << st.to_string();
  }
  fs::remove_all(dir);
}

// ------------------------------------------------- external word count

TEST(ExternalWordCount, MatchesInMemoryAppAtAnyBudget) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 96 * 1024;
  cfg.vocabulary = 3000;
  const std::string text = wload::generate_text(cfg);
  core::JobConfig jc;
  jc.num_map_threads = 4;
  jc.num_reduce_threads = 2;

  apps::WordCountApp reference;
  ingest::SingleDeviceSource ref_src(
      std::make_shared<storage::MemDevice>(text, "m"),
      std::make_shared<ingest::LineFormat>(), 8192);
  core::MapReduceJob ref_job(reference, ref_src, jc);
  ASSERT_TRUE(ref_job.run(core::ExecMode::kIngestMR).ok());

  for (std::uint64_t budget : {std::uint64_t(16 * 1024), std::uint64_t(1 << 24)}) {
    apps::ExternalWordCountApp app(opts(budget));
    ingest::SingleDeviceSource src(
        std::make_shared<storage::MemDevice>(text, "m"),
        std::make_shared<ingest::LineFormat>(), 8192);
    core::MapReduceJob job(app, src, jc);
    auto result = job.run(core::ExecMode::kIngestMR);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(app.results(), reference.results()) << "budget=" << budget;
    if (budget == 16 * 1024) {
      EXPECT_GT(app.runs_spilled(), 0u);  // tight budget actually spilled
    }
  }
}

TEST(ExternalWordCount, OriginalRuntimeModeWorksToo) {
  const std::string text = "a b a\nc a b\n";
  apps::ExternalWordCountApp app(opts(1 << 20));
  ingest::SingleDeviceSource src(
      std::make_shared<storage::MemDevice>(text, "m"),
      std::make_shared<ingest::LineFormat>(), 0);
  core::JobConfig jc;
  jc.num_map_threads = 2;
  jc.num_reduce_threads = 1;
  core::MapReduceJob job(app, src, jc);
  ASSERT_TRUE(job.run(core::ExecMode::kOriginal).ok());
  ASSERT_EQ(app.results().size(), 3u);
  EXPECT_EQ(app.results()[0],
            (apps::ExternalWordCountApp::Result{"a", 3}));
}

}  // namespace
}  // namespace supmr
