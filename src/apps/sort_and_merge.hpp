// The apps' one route to the merge kernels (docs/merge.md §1).
//
// Every app that ends in one key-ordered vector — the keyed skeleton
// (keyed_app.hpp) and the chain sinks (join_sink.hpp) — collects its
// records in unsorted runs (hash partitions, one run per map task) and calls
// sort_and_merge: an introsort wave turns each run into a sorted run, then
// the job's merge (paper §IV) combines them, the single-round
// parallel_pway_merge for kPWay or the log2(R)-round pairwise_merge
// baseline for kPairwise. Both kernels move each record; none is copied.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "core/job_config.hpp"
#include "merge/introsort.hpp"
#include "merge/pairwise.hpp"
#include "merge/pway.hpp"
#include "merge/stats.hpp"
#include "threading/thread_pool.hpp"

namespace supmr::apps {

// Sorts each of `runs` under `less` on the pool, then merges them into
// `out` (resized to the total) with `plan`'s merge, and reports the merge
// rounds through `stats` (may be null). Consumes `runs`. A run that arrives
// sorted (a sink's slice of an upstream's sorted output) costs one pass.
template <typename T, typename Less>
Status sort_and_merge(ThreadPool& pool, const core::MergePlan& plan,
                      std::vector<std::vector<T>> runs, std::vector<T>& out,
                      Less less, merge::MergeStats* stats) {
  std::vector<std::function<void(std::size_t)>> sort_tasks;
  sort_tasks.reserve(runs.size());
  for (auto& run : runs) {
    sort_tasks.push_back([&run, &less](std::size_t) {
      if (!std::is_sorted(run.begin(), run.end(), less))
        merge::introsort(run.begin(), run.end(), less);
    });
  }
  if (!pool.run_wave(sort_tasks))
    return Status::Internal("merge sort wave dropped: thread pool shut down");

  std::uint64_t total = 0;
  for (const auto& run : runs) total += run.size();
  out.clear();
  out.resize(total);

  merge::MergeStats local;
  if (plan.mode == core::MergeMode::kPWay) {
    // The key-space split happens inside parallel_pway_merge, one slice
    // per pool worker.
    std::vector<std::span<T>> spans(runs.begin(), runs.end());
    local = merge::parallel_pway_merge(pool, std::move(spans), out.data(),
                                       less);
  } else {
    // Pairwise baseline: pack the runs back-to-back into `out`, then merge.
    std::vector<std::span<T>> spans;
    spans.reserve(runs.size());
    std::size_t offset = 0;
    for (auto& run : runs) {
      std::move(run.begin(), run.end(), out.begin() + offset);
      spans.emplace_back(out.data() + offset, run.size());
      offset += run.size();
    }
    local = merge::pairwise_merge(pool, std::move(spans), std::span<T>(out),
                                  less);
  }
  if (stats != nullptr) *stats = std::move(local);
  return Status::Ok();
}

}  // namespace supmr::apps
