// Parallel sorters built from the kernels.
//
// form_runs_parallel + one merge = a full parallel sort. Two compositions:
//   * pairwise_merge_sort  — run formation + iterative pairwise merging:
//     the ORIGINAL runtime's merge-sort (Fig. 1 behaviour);
//   * parallel_sample_sort — run formation + single parallel p-way merge:
//     the "OpenMP / __gnu_parallel::sort" style sorter SupMR adopts (Fig. 6).
// Both sort in place over a contiguous buffer and report MergeStats.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "merge/introsort.hpp"
#include "merge/pairwise.hpp"
#include "merge/pway.hpp"
#include "merge/stats.hpp"

namespace supmr::merge {

// Splits `data` into `num_runs` nearly equal pieces and introsorts each on
// the pool. Returns the run extents (back-to-back in `data`).
template <typename T, typename Cmp>
std::vector<std::span<T>> form_runs_parallel(ThreadPool& pool,
                                             std::span<T> data,
                                             std::size_t num_runs, Cmp cmp) {
  num_runs = std::max<std::size_t>(1, std::min(num_runs, data.size()));
  const std::size_t per = (data.size() + num_runs - 1) / num_runs;
  std::vector<std::span<T>> runs;
  std::vector<std::function<void(std::size_t)>> tasks;
  for (std::size_t r = 0; r < num_runs; ++r) {
    const std::size_t begin = r * per;
    if (begin >= data.size()) break;
    const std::size_t end = std::min(begin + per, data.size());
    std::span<T> run = data.subspan(begin, end - begin);
    runs.push_back(run);
    tasks.push_back([run, &cmp](std::size_t) {
      introsort(run.begin(), run.end(), cmp);
    });
  }
  pool.run_wave_or_throw(tasks);
  return runs;
}

// Original-runtime sort: parallel run formation then iterative pairwise
// merging with halving parallelism.
template <typename T, typename Cmp>
MergeStats pairwise_merge_sort(ThreadPool& pool, std::span<T> data, Cmp cmp,
                               std::size_t num_runs = 0) {
  if (num_runs == 0) num_runs = pool.size() * 2;
  auto runs = form_runs_parallel(pool, data, num_runs, cmp);
  return pairwise_merge(pool, std::move(runs), data, cmp);
}

// SupMR sort: parallel run formation then a single parallel p-way merge.
// Needs one scratch buffer of data.size() for the merge output.
template <typename T, typename Cmp>
MergeStats parallel_sample_sort(ThreadPool& pool, std::span<T> data, Cmp cmp,
                                std::size_t num_runs = 0) {
  if (num_runs == 0) num_runs = pool.size() * 2;
  auto runs = form_runs_parallel(pool, data, num_runs, cmp);
  std::vector<T> out(data.size());
  MergeStats stats =
      parallel_pway_merge(pool, std::move(runs), out.data(), cmp);
  std::move(out.begin(), out.end(), data.begin());
  return stats;
}

}  // namespace supmr::merge
