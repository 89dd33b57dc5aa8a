// Tests for the external (spilling) sorter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/rng.hpp"
#include "merge/external_sorter.hpp"
#include "storage/fault_device.hpp"
#include "storage/file_device.hpp"
#include "wload/teragen.hpp"

namespace supmr::merge {
namespace {

ExternalSorterOptions tiny_options(std::uint64_t budget) {
  ExternalSorterOptions opt;
  opt.record_bytes = 100;
  opt.key_bytes = 10;
  opt.memory_budget_bytes = budget;
  opt.spill_dir = ::testing::TempDir();
  opt.merge_read_bytes = 4096;
  return opt;
}

std::string collect_sorted(ExternalSorter& sorter, MergeStats* stats) {
  std::string out;
  auto result = sorter.finish([&](std::span<const char> slab) {
    out.append(slab.data(), slab.size());
    return Status::Ok();
  });
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  if (stats != nullptr && result.ok()) *stats = *result;
  return out;
}

void expect_sorted_records(const std::string& data, std::uint32_t rb,
                           std::uint32_t kb) {
  for (std::size_t r = rb; r < data.size(); r += rb) {
    ASSERT_LE(std::memcmp(data.data() + r - rb, data.data() + r, kb), 0);
  }
}

TEST(ExternalSorter, InMemoryOnlyPath) {
  ThreadPool pool(2);
  ExternalSorter sorter(pool, tiny_options(1 << 20));
  wload::TeraGenConfig cfg;
  cfg.num_records = 500;  // 50 KB << 1 MB budget: no spills
  const std::string input = wload::teragen_to_string(cfg);
  ASSERT_TRUE(sorter.add(std::span<const char>(input.data(), input.size()))
                  .ok());
  EXPECT_EQ(sorter.runs_spilled(), 0u);
  const std::string sorted = collect_sorted(sorter, nullptr);
  ASSERT_EQ(sorted.size(), input.size());
  expect_sorted_records(sorted, 100, 10);
}

TEST(ExternalSorter, SpillsUnderBudgetAndMergesCorrectly) {
  ThreadPool pool(2);
  // 20 KB budget, 200 KB input: ~10 spilled runs.
  ExternalSorter sorter(pool, tiny_options(20000));
  wload::TeraGenConfig cfg;
  cfg.num_records = 2000;
  const std::string input = wload::teragen_to_string(cfg);
  ASSERT_TRUE(sorter.add(std::span<const char>(input.data(), input.size()))
                  .ok());
  EXPECT_GE(sorter.runs_spilled(), 8u);
  MergeStats stats;
  const std::string sorted = collect_sorted(sorter, &stats);
  ASSERT_EQ(sorted.size(), input.size());
  expect_sorted_records(sorted, 100, 10);
  EXPECT_EQ(stats.num_rounds(), 1u);  // single k-way pass
  EXPECT_EQ(stats.total_items_moved(), 2000u);

  // Same multiset of records as the input.
  std::vector<std::string_view> in_recs, out_recs;
  for (std::size_t r = 0; r < input.size(); r += 100) {
    in_recs.emplace_back(input.data() + r, 100);
    out_recs.emplace_back(sorted.data() + r, 100);
  }
  std::sort(in_recs.begin(), in_recs.end());
  std::sort(out_recs.begin(), out_recs.end());
  EXPECT_EQ(in_recs, out_recs);
}

TEST(ExternalSorter, ManySmallAdds) {
  ThreadPool pool(2);
  ExternalSorter sorter(pool, tiny_options(8000));
  wload::TeraGenConfig cfg;
  cfg.num_records = 700;
  const std::string input = wload::teragen_to_string(cfg);
  // One record at a time.
  for (std::size_t r = 0; r < input.size(); r += 100) {
    ASSERT_TRUE(
        sorter.add(std::span<const char>(input.data() + r, 100)).ok());
  }
  EXPECT_EQ(sorter.records_added(), 700u);
  const std::string sorted = collect_sorted(sorter, nullptr);
  ASSERT_EQ(sorted.size(), input.size());
  expect_sorted_records(sorted, 100, 10);
}

TEST(ExternalSorter, AddLargerThanBudget) {
  ThreadPool pool(2);
  ExternalSorter sorter(pool, tiny_options(5000));  // 50 records
  wload::TeraGenConfig cfg;
  cfg.num_records = 1000;  // one add() of 20x the budget
  const std::string input = wload::teragen_to_string(cfg);
  ASSERT_TRUE(sorter.add(std::span<const char>(input.data(), input.size()))
                  .ok());
  const std::string sorted = collect_sorted(sorter, nullptr);
  ASSERT_EQ(sorted.size(), input.size());
  expect_sorted_records(sorted, 100, 10);
}

TEST(ExternalSorter, EmptyInput) {
  ThreadPool pool(2);
  ExternalSorter sorter(pool, tiny_options(10000));
  int sink_calls = 0;
  auto result = sorter.finish([&](std::span<const char>) {
    ++sink_calls;
    return Status::Ok();
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(sink_calls, 0);
}

TEST(ExternalSorter, RejectsTornRecords) {
  ThreadPool pool(2);
  ExternalSorter sorter(pool, tiny_options(10000));
  const std::string bad(150, 'x');
  EXPECT_FALSE(
      sorter.add(std::span<const char>(bad.data(), bad.size())).ok());
}

TEST(ExternalSorter, FinishTwiceRejected) {
  ThreadPool pool(2);
  ExternalSorter sorter(pool, tiny_options(10000));
  auto ok = sorter.finish([](std::span<const char>) { return Status::Ok(); });
  ASSERT_TRUE(ok.ok());
  auto again =
      sorter.finish([](std::span<const char>) { return Status::Ok(); });
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ExternalSorter, SinkErrorPropagates) {
  ThreadPool pool(2);
  ExternalSorter sorter(pool, tiny_options(4000));
  wload::TeraGenConfig cfg;
  cfg.num_records = 500;
  const std::string input = wload::teragen_to_string(cfg);
  ASSERT_TRUE(sorter.add(std::span<const char>(input.data(), input.size()))
                  .ok());
  auto result = sorter.finish(
      [](std::span<const char>) { return Status::Internal("sink full"); });
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

// A spill read that fails inside the final merge, after each run's first
// slab was read, fails finish() with the device's IoError instead of
// ending that run early: the merge stops at the failing record.
TEST(ExternalSorter, SpillReadFaultMidMergeFails) {
  ThreadPool pool(2);
  ExternalSorterOptions opt = tiny_options(20000);  // ~200 records per run
  opt.merge_read_bytes = 1000;                       // 10-record slabs
  fault::FaultPlan plan;  // bytes from the second slab on fail every read
  plan.permanent.emplace_back(opt.merge_read_bytes,
                              std::numeric_limits<std::uint64_t>::max());
  opt.open_spill = [plan](const std::string& path)
      -> StatusOr<std::shared_ptr<const storage::Device>> {
    SUPMR_ASSIGN_OR_RETURN(std::shared_ptr<const storage::Device> file,
                           storage::FileDevice::open(path));
    return std::shared_ptr<const storage::Device>(
        std::make_shared<storage::FaultDevice>(std::move(file), plan));
  };
  ExternalSorter sorter(pool, opt);
  wload::TeraGenConfig cfg;
  cfg.num_records = 2000;
  const std::string input = wload::teragen_to_string(cfg);
  ASSERT_TRUE(sorter.add(std::span<const char>(input.data(), input.size()))
                  .ok());
  ASSERT_GE(sorter.runs_spilled(), 2u);
  std::uint64_t received = 0;
  auto result = sorter.finish([&](std::span<const char> slab) {
    received += slab.size() / 100;
    return Status::Ok();
  });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_LT(received, sorter.records_added());
}

class ExternalSorterProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExternalSorterProperty, SortsRandomSizesAndBudgets) {
  const auto [records, budget_records] = GetParam();
  ThreadPool pool(3);
  ExternalSorter sorter(pool, tiny_options(budget_records * 100));
  wload::TeraGenConfig cfg;
  cfg.num_records = records;
  cfg.seed = records * 31 + budget_records;
  const std::string input = wload::teragen_to_string(cfg);
  ASSERT_TRUE(sorter.add(std::span<const char>(input.data(), input.size()))
                  .ok());
  const std::string sorted = collect_sorted(sorter, nullptr);
  ASSERT_EQ(sorted.size(), input.size());
  expect_sorted_records(sorted, 100, 10);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExternalSorterProperty,
    ::testing::Combine(::testing::Values(1, 16, 100, 1777),
                       ::testing::Values(16, 50, 333)));

}  // namespace
}  // namespace supmr::merge
