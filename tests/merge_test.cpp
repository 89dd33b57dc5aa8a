// Unit + property tests for the sorting/merging kernels: introsort, loser
// tree, pairwise merge, parallel p-way merge, composed sorters, and the
// round-geometry statistics the paper's figures rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/rng.hpp"
#include "merge/introsort.hpp"
#include "merge/loser_tree.hpp"
#include "merge/pairwise.hpp"
#include "merge/pway.hpp"
#include "merge/sample_sort.hpp"
#include "tests/testdata.hpp"

namespace supmr::merge {
namespace {

using testdata::random_ints;  // shared seeded generator (tests/testdata.hpp)

// Checks sortedness and that `sorted` is a permutation of `original`.
void expect_sorted_permutation(std::vector<int> original,
                               std::vector<int> sorted) {
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  std::sort(original.begin(), original.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(original, sorted);
}

// -------------------------------------------------------------- introsort

TEST(Introsort, EmptyAndSingle) {
  std::vector<int> v;
  introsort(v.begin(), v.end());
  v = {42};
  introsort(v.begin(), v.end());
  EXPECT_EQ(v, std::vector<int>{42});
}

TEST(Introsort, AlreadySorted) {
  std::vector<int> v(1000);
  std::iota(v.begin(), v.end(), 0);
  auto copy = v;
  introsort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Introsort, ReverseSorted) {
  std::vector<int> v(1000);
  std::iota(v.rbegin(), v.rend(), 0);
  introsort(v.begin(), v.end());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(Introsort, AllEqual) {
  std::vector<int> v(5000, 7);
  introsort(v.begin(), v.end());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_EQ(v[0], 7);
  EXPECT_EQ(v[4999], 7);
}

TEST(Introsort, FewDistinctValues) {
  auto v = random_ints(20000, 3, /*range=*/4);
  auto orig = v;
  introsort(v.begin(), v.end());
  expect_sorted_permutation(orig, v);
}

TEST(Introsort, OrganPipe) {
  // Adversarial for naive quicksort pivots.
  auto v = testdata::organ_pipe(10000);
  auto orig = v;
  introsort(v.begin(), v.end());
  expect_sorted_permutation(orig, v);
}

TEST(Introsort, CustomComparator) {
  auto v = random_ints(1000, 4);
  introsort(v.begin(), v.end(), std::greater<int>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<int>{}));
}

class IntrosortProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IntrosortProperty, SortsRandomInputs) {
  const auto [n, seed] = GetParam();
  auto v = random_ints(n, seed);
  auto orig = v;
  introsort(v.begin(), v.end());
  expect_sorted_permutation(orig, v);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, IntrosortProperty,
    ::testing::Combine(::testing::Values(2, 23, 24, 25, 1000, 65536),
                       ::testing::Values(1, 2, 3)));

// -------------------------------------------------------------- loser tree

TEST(LoserTree, MergesTwoRuns) {
  std::vector<int> a{1, 3, 5}, b{2, 4, 6};
  LoserTree<int, std::less<int>> tree(
      {std::span<const int>(a), std::span<const int>(b)}, std::less<int>{});
  std::vector<int> out(6);
  tree.drain(out.data());
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(LoserTree, HandlesEmptyRuns) {
  std::vector<int> a{5}, empty;
  LoserTree<int, std::less<int>> tree(
      {std::span<const int>(empty), std::span<const int>(a),
       std::span<const int>(empty)},
      std::less<int>{});
  EXPECT_EQ(tree.remaining(), 1u);
  EXPECT_EQ(tree.pop(), 5);
  EXPECT_TRUE(tree.empty());
}

TEST(LoserTree, NonPowerOfTwoRunCount) {
  std::vector<std::vector<int>> runs = {{1, 10}, {2, 20}, {3, 30},
                                        {4, 40}, {5, 50}};
  std::vector<std::span<const int>> spans;
  for (auto& r : runs) spans.emplace_back(r);
  LoserTree<int, std::less<int>> tree(spans, std::less<int>{});
  std::vector<int> out(10);
  tree.drain(out.data());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out.front(), 1);
  EXPECT_EQ(out.back(), 50);
}

TEST(LoserTree, DuplicatesAcrossRuns) {
  std::vector<int> a{1, 1, 2}, b{1, 2, 2};
  LoserTree<int, std::less<int>> tree(
      {std::span<const int>(a), std::span<const int>(b)}, std::less<int>{});
  std::vector<int> out(6);
  tree.drain(out.data());
  EXPECT_EQ(out, (std::vector<int>{1, 1, 1, 2, 2, 2}));
}

class LoserTreeProperty : public ::testing::TestWithParam<int> {};

TEST_P(LoserTreeProperty, EquivalentToSortOfConcatenation) {
  Xoshiro256 rng(GetParam());
  const std::size_t num_runs = 1 + rng.uniform(17);
  std::vector<std::vector<int>> runs(num_runs);
  std::vector<int> all;
  for (auto& run : runs) {
    const std::size_t len = rng.uniform(200);
    run = random_ints(len, rng(), 1000);
    std::sort(run.begin(), run.end());
    all.insert(all.end(), run.begin(), run.end());
  }
  std::vector<std::span<const int>> spans;
  for (auto& r : runs) spans.emplace_back(r);
  LoserTree<int, std::less<int>> tree(spans, std::less<int>{});
  std::vector<int> out(all.size());
  tree.drain(out.data());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(out, all);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoserTreeProperty,
                         ::testing::Range(100, 112));

// ---------------------------------------------------------- pairwise merge

TEST(PairwiseMerge, SortsAndReportsHalvingRounds) {
  ThreadPool pool(4);
  std::vector<int> data = random_ints(8000, 5);
  auto orig = data;
  // 8 runs of 1000, each pre-sorted.
  std::vector<std::span<int>> runs;
  for (int r = 0; r < 8; ++r) {
    std::span<int> run(data.data() + r * 1000, 1000);
    std::sort(run.begin(), run.end());
    runs.push_back(run);
  }
  MergeStats stats = pairwise_merge(pool, runs,
                                    std::span<int>(data.data(), data.size()),
                                    std::less<int>{});
  expect_sorted_permutation(orig, data);
  // log2(8) = 3 rounds with 4, 2, 1 workers — the Fig. 1 step curve.
  ASSERT_EQ(stats.num_rounds(), 3u);
  EXPECT_EQ(stats.rounds[0].active_workers, 4u);
  EXPECT_EQ(stats.rounds[1].active_workers, 2u);
  EXPECT_EQ(stats.rounds[2].active_workers, 1u);
  // Every round re-scans all N items: total moves = N * rounds.
  EXPECT_EQ(stats.total_items_moved(), 8000u * 3u);
}

TEST(PairwiseMerge, OddRunCount) {
  ThreadPool pool(2);
  std::vector<int> data = random_ints(300, 6);
  auto orig = data;
  std::vector<std::span<int>> runs;
  for (int r = 0; r < 3; ++r) {
    std::span<int> run(data.data() + r * 100, 100);
    std::sort(run.begin(), run.end());
    runs.push_back(run);
  }
  pairwise_merge(pool, runs, std::span<int>(data.data(), data.size()),
                 std::less<int>{});
  expect_sorted_permutation(orig, data);
}

TEST(PairwiseMerge, SingleRunNoRounds) {
  ThreadPool pool(2);
  std::vector<int> data = {3, 1, 2};
  std::sort(data.begin(), data.end());
  std::vector<std::span<int>> runs{std::span<int>(data)};
  MergeStats stats = pairwise_merge(pool, runs, std::span<int>(data),
                                    std::less<int>{});
  EXPECT_EQ(stats.num_rounds(), 0u);
}

// -------------------------------------------------------------- p-way merge

TEST(PwayMerge, SingleRoundFullWidth) {
  ThreadPool pool(4);
  std::vector<std::vector<int>> runs(16);
  std::vector<int> all;
  Xoshiro256 rng(7);
  for (auto& run : runs) {
    run = random_ints(500, rng(), 10000);
    std::sort(run.begin(), run.end());
    all.insert(all.end(), run.begin(), run.end());
  }
  std::vector<std::span<int>> spans;
  for (auto& r : runs) spans.emplace_back(r);
  std::vector<int> out(all.size());
  MergeStats stats =
      parallel_pway_merge(pool, spans, out.data(), std::less<int>{});
  // ONE round (the whole point vs pairwise), all workers active.
  ASSERT_EQ(stats.num_rounds(), 1u);
  EXPECT_EQ(stats.total_items_moved(), all.size());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(out, all);
}

TEST(PwayMerge, SkewedRunSizes) {
  ThreadPool pool(4);
  std::vector<int> big = random_ints(10000, 8, 100);  // heavy duplicates
  std::vector<int> small = {50};
  std::sort(big.begin(), big.end());
  std::vector<int> all = big;
  all.push_back(50);
  std::vector<int> out(all.size());
  parallel_pway_merge(
      pool,
      {std::span<int>(big), std::span<int>(small)},
      out.data(), std::less<int>{});
  std::sort(all.begin(), all.end());
  EXPECT_EQ(out, all);
}

TEST(PwayMerge, EmptyInput) {
  ThreadPool pool(2);
  std::vector<int> out;
  MergeStats stats = parallel_pway_merge(pool, {}, out.data(),
                                         std::less<int>{});
  EXPECT_EQ(stats.num_rounds(), 0u);
}

class PwayProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PwayProperty, MatchesReferenceSort) {
  const auto [num_runs, seed] = GetParam();
  ThreadPool pool(3);
  Xoshiro256 rng(seed);
  std::vector<std::vector<int>> runs(num_runs);
  std::vector<int> all;
  for (auto& run : runs) {
    run = random_ints(rng.uniform(3000), rng(), 500);
    std::sort(run.begin(), run.end());
    all.insert(all.end(), run.begin(), run.end());
  }
  std::vector<std::span<int>> spans;
  for (auto& r : runs) spans.emplace_back(r);
  std::vector<int> out(all.size());
  parallel_pway_merge(pool, spans, out.data(), std::less<int>{});
  std::sort(all.begin(), all.end());
  EXPECT_EQ(out, all);
}

INSTANTIATE_TEST_SUITE_P(
    RunsAndSeeds, PwayProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 9, 32),
                       ::testing::Values(1, 2)));

// --------------------------------------------------------- composed sorts

TEST(SampleSort, SortsLargeArray) {
  ThreadPool pool(4);
  auto data = random_ints(100000, 9);
  auto orig = data;
  MergeStats stats = parallel_sample_sort(
      pool, std::span<int>(data.data(), data.size()), std::less<int>{});
  expect_sorted_permutation(orig, data);
  EXPECT_EQ(stats.num_rounds(), 1u);
}

TEST(PairwiseMergeSort, SortsLargeArray) {
  ThreadPool pool(4);
  auto data = random_ints(100000, 10);
  auto orig = data;
  MergeStats stats = pairwise_merge_sort(
      pool, std::span<int>(data.data(), data.size()), std::less<int>{});
  expect_sorted_permutation(orig, data);
  EXPECT_GT(stats.num_rounds(), 1u);  // iterative rounds
}

TEST(SortersAgree, SameResultBothAlgorithms) {
  ThreadPool pool(3);
  auto a = random_ints(30000, 11);
  auto b = a;
  parallel_sample_sort(pool, std::span<int>(a.data(), a.size()),
                       std::less<int>{});
  pairwise_merge_sort(pool, std::span<int>(b.data(), b.size()),
                      std::less<int>{});
  EXPECT_EQ(a, b);
}

TEST(FormRuns, EachRunSortedAndCoversData) {
  ThreadPool pool(4);
  auto data = random_ints(10000, 12);
  auto runs = form_runs_parallel(pool, std::span<int>(data.data(), data.size()),
                                 8, std::less<int>{});
  EXPECT_EQ(runs.size(), 8u);
  std::size_t covered = 0;
  for (auto& run : runs) {
    EXPECT_TRUE(std::is_sorted(run.begin(), run.end()));
    covered += run.size();
  }
  EXPECT_EQ(covered, data.size());
}

TEST(FormRuns, MoreRunsThanElements) {
  ThreadPool pool(2);
  std::vector<int> data{3, 1};
  auto runs = form_runs_parallel(pool, std::span<int>(data), 10,
                                 std::less<int>{});
  EXPECT_LE(runs.size(), 2u);
}

// Fixed-width record sort through an index array.
TEST(IndexSort, RecordsByKeyPrefix) {
  constexpr std::size_t kRecords = 2000, kWidth = 20, kKey = 5;
  Xoshiro256 rng(13);
  std::string data(kRecords * kWidth, 'x');
  for (std::size_t r = 0; r < kRecords; ++r) {
    for (std::size_t k = 0; k < kKey; ++k)
      data[r * kWidth + k] = static_cast<char>('A' + rng.uniform(26));
  }
  std::vector<std::uint64_t> index(kRecords);
  std::iota(index.begin(), index.end(), 0);
  const char* base = data.data();
  auto cmp = [base](std::uint64_t a, std::uint64_t b) {
    return std::memcmp(base + a * kWidth, base + b * kWidth, kKey) < 0;
  };
  ThreadPool pool(4);
  parallel_sample_sort(pool, std::span<std::uint64_t>(index), cmp);
  for (std::size_t i = 1; i < kRecords; ++i) {
    EXPECT_LE(std::memcmp(base + index[i - 1] * kWidth,
                          base + index[i] * kWidth, kKey),
              0);
  }
}

}  // namespace
}  // namespace supmr::merge
