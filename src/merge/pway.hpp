// Parallel p-way merge: SupMR's replacement merge phase (paper §IV).
//
// Merges N sorted runs into the output in ONE round using p workers:
//   1. sample keys across runs, sort the sample, pick p-1 splitters;
//   2. binary-search each splitter in each run, giving each worker a
//      disjoint slice of every run plus a disjoint output window (offsets
//      are prefix sums of slice sizes — no worker synchronization);
//   3. each worker loser-tree-merges its slices into its window.
// Every element moves exactly once (a move, not a copy: the runs are
// consumed) and all p workers stay busy — the single tall utilization spike
// of Fig. 6, versus the pairwise step curve.
#pragma once

#include <algorithm>
#include <chrono>
#include <span>
#include <vector>

#include "common/test_hooks.hpp"
#include "merge/loser_tree.hpp"
#include "merge/splitters.hpp"
#include "merge/stats.hpp"
#include "obs/macros.hpp"
#include "threading/thread_pool.hpp"

namespace supmr::merge {

// Merges `runs` (each sorted under cmp) into `out` (size >= total elements),
// moving every element out of its run; the runs' elements are left
// moved-from. `p` defaults to the pool size. Returns single-round stats.
template <typename T, typename Cmp>
MergeStats parallel_pway_merge(ThreadPool& pool, std::vector<std::span<T>> runs,
                               T* out, Cmp cmp, std::size_t p = 0) {
  MergeStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  if (p == 0) p = pool.size();

  std::uint64_t total = 0;
  for (const auto& r : runs) total += r.size();
  if (total == 0) return stats;
  SUPMR_TRACE_SCOPE_VAR(span, "merge", "merge.pway_round");
  SUPMR_TRACE_SET_ARG(span, "runs", runs.size());
  SUPMR_TRACE_SET_ARG2(span, "items", total);
  SUPMR_COUNTER_ADD("merge.rounds", 1);
  SUPMR_COUNTER_ADD("merge.items_moved", total);
  p = std::min<std::size_t>(p, std::max<std::uint64_t>(1, total));

  // 1. Sample: ~32 probes per worker, spread evenly over each run.
  std::vector<T> sample;
  const std::size_t per_run =
      std::max<std::size_t>(1, 32 * p / std::max<std::size_t>(1, runs.size()));
  for (const auto& r : runs) {
    if (r.empty()) continue;
    const std::size_t step = std::max<std::size_t>(1, r.size() / per_run);
    for (std::size_t i = step / 2; i < r.size(); i += step)
      sample.push_back(r[i]);
  }
  std::sort(sample.begin(), sample.end(), cmp);

  // 2. Splitters -> per-worker slice boundaries in every run. The shared
  // quantile cut drops duplicate splitters, which would only bound empty
  // slices, so there may be fewer than p workers.
  // boundaries[w][r] = first index of run r belonging to worker >= w.
  const std::vector<T> cuts =
      cut_splitters(std::span<const T>(sample), p, cmp);
  const std::size_t workers = cuts.size() + 1;
  std::vector<std::vector<std::size_t>> boundaries(workers + 1);
  boundaries[0].assign(runs.size(), 0);
  for (std::size_t w = 1; w < workers; ++w) {
    boundaries[w].resize(runs.size());
    for (std::size_t r = 0; r < runs.size(); ++r) {
      boundaries[w][r] = static_cast<std::size_t>(
          std::lower_bound(runs[r].begin(), runs[r].end(), cuts[w - 1], cmp) -
          runs[r].begin());
    }
  }
  boundaries[workers].resize(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r)
    boundaries[workers][r] = runs[r].size();

  // Output offsets: prefix sums of each worker's total slice size.
  std::vector<std::uint64_t> out_offset(workers + 1, 0);
  for (std::size_t w = 0; w < workers; ++w) {
    std::uint64_t slice = 0;
    for (std::size_t r = 0; r < runs.size(); ++r)
      slice += boundaries[w + 1][r] - boundaries[w][r];
    out_offset[w + 1] = out_offset[w] + slice;
  }

  // 3. Independent loser-tree merges. The "pway-comparator" mutation hook
  // (conformance harness smoke) inverts the comparator in this stage ONLY —
  // the splitting above keeps using the real cmp, because handing an
  // inconsistent comparator to std::lower_bound would be unspecified
  // behaviour rather than a clean wrong answer.
  static const bool mutate_cmp = test_mutation_enabled("pway-comparator");
  std::vector<std::function<void(std::size_t)>> tasks;
  tasks.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    if (out_offset[w + 1] == out_offset[w]) continue;
    tasks.push_back([&, w](std::size_t) {
      std::vector<std::span<T>> slices;
      slices.reserve(runs.size());
      for (std::size_t r = 0; r < runs.size(); ++r) {
        slices.push_back(
            runs[r].subspan(boundaries[w][r],
                            boundaries[w + 1][r] - boundaries[w][r]));
      }
      if (mutate_cmp) {
        auto inverted = [&cmp](const T& a, const T& b) { return cmp(b, a); };
        LoserTree<T, decltype(inverted), SpanCursor<T>> tree(slices, inverted);
        tree.drain(out + out_offset[w]);
      } else {
        LoserTree<T, Cmp, SpanCursor<T>> tree(slices, cmp);
        tree.drain(out + out_offset[w]);
      }
    });
  }
  pool.run_wave_or_throw(tasks);

  MergeStats::Round round;
  round.active_workers = tasks.size();
  round.items_moved = total;
  round.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stats.rounds.push_back(round);
  return stats;
}

}  // namespace supmr::merge
