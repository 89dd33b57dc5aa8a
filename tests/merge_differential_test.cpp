// Differential merge-correctness suite: every merge backend in src/merge/
// is pinned against a std::stable_sort reference on seeded adversarial
// inputs (tests/testdata.hpp). Any reordering, dropped record, duplicate,
// or comparator tie-break bug in ANY backend shows up as a diff against the
// reference, on the exact inputs the benches run (docs/merge.md).
//
// Backends: pairwise, parallel p-way, loser tree, sample sort and pairwise
// merge sort.
//
// Labels: unit + sanitizer — the differential suite must stay clean under
// TSan and ASan+UBSan (tools/check.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "merge/loser_tree.hpp"
#include "merge/pairwise.hpp"
#include "merge/pway.hpp"
#include "merge/sample_sort.hpp"
#include "tests/testdata.hpp"
#include "threading/thread_pool.hpp"

namespace supmr::merge {
namespace {

std::vector<int> reference_sort(std::vector<int> v) {
  std::stable_sort(v.begin(), v.end());
  return v;
}

// Splits `data` into up to `k` contiguous runs and sorts each — the
// pre-sorted-runs shape the merge kernels consume.
std::vector<std::span<int>> make_runs(std::vector<int>& data, std::size_t k) {
  std::vector<std::span<int>> runs;
  if (data.empty()) return runs;
  k = std::max<std::size_t>(1, std::min(k, data.size()));
  const std::size_t per = (data.size() + k - 1) / k;
  for (std::size_t begin = 0; begin < data.size(); begin += per) {
    const std::size_t len = std::min(per, data.size() - begin);
    std::span<int> run(data.data() + begin, len);
    std::sort(run.begin(), run.end());
    runs.push_back(run);
  }
  return runs;
}

struct Backend {
  std::string name;
  // Takes the pool and the raw (unsorted) input; returns the fully sorted
  // output by whatever path the backend implements.
  std::function<std::vector<int>(ThreadPool&, const std::vector<int>&)> run;
};

std::vector<Backend> all_backends() {
  const auto cmp = std::less<int>{};
  std::vector<Backend> backends;

  backends.push_back({"pairwise", [cmp](ThreadPool& pool,
                                        const std::vector<int>& in) {
    auto data = in;
    auto runs = make_runs(data, 8);
    pairwise_merge(pool, std::move(runs),
                   std::span<int>(data.data(), data.size()), cmp);
    return data;
  }});

  backends.push_back({"pway", [cmp](ThreadPool& pool,
                                    const std::vector<int>& in) {
    auto data = in;
    auto sorted_runs = make_runs(data, 7);
    std::vector<std::span<const int>> runs(sorted_runs.begin(),
                                           sorted_runs.end());
    std::vector<int> out(data.size());
    parallel_pway_merge(pool, std::move(runs), out.data(), cmp);
    return out;
  }});

  backends.push_back({"loser_tree", [cmp](ThreadPool&,
                                          const std::vector<int>& in) {
    auto data = in;
    auto sorted_runs = make_runs(data, 6);
    std::vector<std::span<const int>> runs(sorted_runs.begin(),
                                           sorted_runs.end());
    std::vector<int> out(data.size());
    LoserTree<int, std::less<int>> tree(std::move(runs), cmp);
    tree.drain(out.data());
    return out;
  }});

  backends.push_back({"sample_sort", [cmp](ThreadPool& pool,
                                           const std::vector<int>& in) {
    auto data = in;
    parallel_sample_sort(pool, std::span<int>(data.data(), data.size()),
                         cmp);
    return data;
  }});

  backends.push_back({"pairwise_merge_sort",
                      [cmp](ThreadPool& pool, const std::vector<int>& in) {
    auto data = in;
    pairwise_merge_sort(pool, std::span<int>(data.data(), data.size()), cmp);
    return data;
  }});

  return backends;
}

class DifferentialMerge : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialMerge, EveryBackendMatchesStableSortReference) {
  ThreadPool pool(4);
  const auto datasets = testdata::adversarial_int_datasets(GetParam());
  for (const auto& dataset : datasets) {
    const std::vector<int> expected = reference_sort(dataset.data);
    for (const auto& backend : all_backends()) {
      const std::vector<int> got = backend.run(pool, dataset.data);
      EXPECT_EQ(got, expected)
          << "backend=" << backend.name << " dataset=" << dataset.name
          << " seed=" << GetParam();
    }
  }
}

TEST_P(DifferentialMerge, SingleThreadPoolSameResult) {
  // Pool of one: every wave degenerates to sequential execution; results
  // must not depend on parallelism.
  ThreadPool pool(1);
  const auto datasets = testdata::adversarial_int_datasets(GetParam());
  for (const auto& dataset : datasets) {
    const std::vector<int> expected = reference_sort(dataset.data);
    for (const auto& backend : all_backends()) {
      EXPECT_EQ(backend.run(pool, dataset.data), expected)
          << "backend=" << backend.name << " dataset=" << dataset.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialMerge,
                         ::testing::Values(1u, 0xA11CE5u, 0xC0FFEEu));

}  // namespace
}  // namespace supmr::merge
