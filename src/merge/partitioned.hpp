// Partitioned merge: per-partition loser-tree merges over a key-range
// sharded intermediate set.
//
// The p-way merge (pway.hpp) removed the paper's round barrier but kept one
// global round over the persistent container: sample, binary-search every
// splitter in every run, then merge — the sampling/splitting prologue is
// serial and every worker's loser tree still spans ALL runs. This header
// moves the partitioning off the merge critical path entirely: when the
// intermediate data is already sharded into P key-range partitions (at map
// time via containers::PartitionedContainer, or by partition_values()), the
// merge phase degenerates into P fully independent merges that scale with
// hardware contexts, and the concatenation of partition outputs is globally
// sorted by construction. This is Phoenix++'s container sharding fused with
// sample sort's splitter discipline (paper §IV, SupMR Fig. 6).
//
// Invariant shared by everything here: splitters s_0 < s_1 < ... < s_{P-2}
// assign an element x to partition upper_bound(splitters, x) — equal keys
// always land in the same partition, so partition p's keys all sort strictly
// before partition p+1's.
#pragma once

#include <algorithm>
#include <chrono>
#include <span>
#include <vector>

#include "common/test_hooks.hpp"
#include "merge/introsort.hpp"
#include "merge/loser_tree.hpp"
#include "merge/stats.hpp"
#include "obs/macros.hpp"
#include "threading/thread_pool.hpp"

namespace supmr::merge {

// Cuts up to `partitions - 1` splitters from `sorted` (sorted under cmp) at
// evenly spaced quantiles: cut p is element p * n / partitions. A cut that
// does not sort strictly after the one before it is dropped, so the result
// is strictly increasing and may be shorter (duplicate-heavy inputs need
// fewer cuts). The one quantile cut: select_splitters, the partitioned
// container and pway's worker slices all use it.
template <typename T, typename Cmp>
std::vector<T> cut_splitters(std::span<const T> sorted,
                             std::size_t partitions, Cmp cmp) {
  std::vector<T> cuts;
  if (sorted.empty()) return cuts;
  for (std::size_t p = 1; p < partitions; ++p) {
    const T& cut = sorted[p * sorted.size() / partitions];
    if (cuts.empty() || cmp(cuts.back(), cut)) cuts.push_back(cut);
  }
  return cuts;
}

// Picks up to `partitions - 1` splitters by sampling `data` evenly (~32
// probes per partition), sorting the sample, and cutting it with
// cut_splitters. Deterministic: evenly spaced probes, no RNG.
template <typename T, typename Cmp>
std::vector<T> select_splitters(std::span<const T> data,
                                std::size_t partitions, Cmp cmp) {
  if (partitions < 2 || data.size() < 2) return {};
  std::vector<T> sample;
  const std::size_t want = std::min<std::size_t>(data.size(), 32 * partitions);
  const std::size_t step = std::max<std::size_t>(1, data.size() / want);
  for (std::size_t i = step / 2; i < data.size(); i += step)
    sample.push_back(data[i]);
  std::sort(sample.begin(), sample.end(), cmp);
  return cut_splitters(std::span<const T>(sample), partitions, cmp);
}

// Partition index of `x` under `splitters` (sorted, strictly increasing):
// the number of splitters <= x. Equal keys map to the same partition. The
// one key-to-partition router: map-time containers, partitioned_sort and
// the cluster shuffle all route through it.
template <typename S, typename T, typename Cmp>
std::size_t partition_of(const std::vector<S>& splitters, const T& x,
                         Cmp cmp) {
  std::size_t p = static_cast<std::size_t>(
      std::upper_bound(splitters.begin(), splitters.end(), x, cmp) -
      splitters.begin());
  // "partition-routing" mutation hook (conformance harness smoke): rotate
  // every element one partition up, wrapping the top key range into
  // partition 0. The wrap is what makes it detectable — a uniform or
  // monotone shift would be erased by the per-stripe sorts downstream.
  static const bool mutate_routing = test_mutation_enabled("partition-routing");
  if (mutate_routing && !splitters.empty()) {
    p = (p + 1) % (splitters.size() + 1);
  }
  return p;
}

// Buckets `data` into splitters.size() + 1 partitions, preserving arrival
// order within each partition. The map-time path for values that are not in
// a PartitionedContainer yet (tests, benches, word-count style runs).
template <typename T, typename Cmp>
std::vector<std::vector<T>> partition_values(std::span<const T> data,
                                             const std::vector<T>& splitters,
                                             Cmp cmp) {
  std::vector<std::vector<T>> parts(splitters.size() + 1);
  for (const T& x : data) parts[partition_of(splitters, x, cmp)].push_back(x);
  return parts;
}

namespace detail {

inline void record_partition_stats(MergeStats& stats,
                                   const std::vector<std::uint64_t>& sizes) {
  stats.partitions = sizes.size();
  stats.partition_max_items = 0;
  stats.partition_min_items = sizes.empty() ? 0 : ~std::uint64_t{0};
  std::uint64_t total = 0;
  for (std::uint64_t s : sizes) {
    stats.partition_max_items = std::max(stats.partition_max_items, s);
    stats.partition_min_items = std::min(stats.partition_min_items, s);
    total += s;
  }
  if (sizes.empty()) stats.partition_min_items = 0;
  SUPMR_GAUGE_SET("merge.partitions", sizes.size());
  SUPMR_GAUGE_SET("merge.partition_max_items", stats.partition_max_items);
  SUPMR_GAUGE_SET("merge.partition_mean_items",
                  sizes.empty() ? 0 : total / sizes.size());
}

}  // namespace detail

// Merges key-range partitioned stripes into `out` in ONE parallel pass.
//
// `partitions[p]` holds partition p's stripes (one per producer thread; any
// count, any sizes, possibly empty). Stripes need NOT be sorted: a first
// wave introsorts every stripe in parallel (P*T-way parallelism), a second
// wave runs one loser-tree merge per partition into that partition's
// disjoint output window (offsets are prefix sums — no synchronization).
// Because partitions are key-ordered, `out` ends globally sorted.
template <typename T, typename Cmp>
MergeStats partitioned_merge(ThreadPool& pool,
                             std::vector<std::vector<std::span<T>>> partitions,
                             T* out, Cmp cmp) {
  MergeStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t P = partitions.size();
  if (P == 0) return stats;

  std::vector<std::uint64_t> sizes(P, 0);
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < P; ++p) {
    for (const auto& s : partitions[p]) sizes[p] += s.size();
    total += sizes[p];
  }
  detail::record_partition_stats(stats, sizes);
  if (total == 0) return stats;

  SUPMR_TRACE_SCOPE_VAR(span, "merge", "merge.partitioned");
  SUPMR_TRACE_SET_ARG(span, "partitions", P);
  SUPMR_TRACE_SET_ARG2(span, "items", total);
  SUPMR_COUNTER_ADD("merge.rounds", 1);
  SUPMR_COUNTER_ADD("merge.items_moved", total);

  // Wave 1: sort every stripe independently.
  std::vector<std::function<void(std::size_t)>> sort_tasks;
  for (auto& part : partitions) {
    for (auto& stripe : part) {
      if (stripe.size() < 2) continue;
      sort_tasks.push_back([stripe, &cmp](std::size_t) {
        introsort(stripe.begin(), stripe.end(), cmp);
      });
    }
  }
  pool.run_wave_or_throw(sort_tasks);

  // Wave 2: one loser-tree merge per partition into its output window.
  std::vector<std::uint64_t> offsets(P + 1, 0);
  for (std::size_t p = 0; p < P; ++p) offsets[p + 1] = offsets[p] + sizes[p];

  std::vector<std::function<void(std::size_t)>> merge_tasks;
  for (std::size_t p = 0; p < P; ++p) {
    if (sizes[p] == 0) continue;
    merge_tasks.push_back([&partitions, &offsets, out, &cmp, p](std::size_t) {
      SUPMR_TRACE_SCOPE_VAR(pspan, "merge", "merge.partition");
      SUPMR_TRACE_SET_ARG(pspan, "partition", p);
      SUPMR_TRACE_SET_ARG2(pspan, "items", offsets[p + 1] - offsets[p]);
      std::vector<std::span<const T>> runs;
      runs.reserve(partitions[p].size());
      for (const auto& stripe : partitions[p])
        runs.push_back(std::span<const T>(stripe.data(), stripe.size()));
      LoserTree<T, Cmp> tree(std::move(runs), cmp);
      tree.drain(out + offsets[p]);
    });
  }
  pool.run_wave_or_throw(merge_tasks);

  MergeStats::Round round;
  round.active_workers = std::min(merge_tasks.size(), pool.size());
  round.items_moved = total;
  round.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stats.rounds.push_back(round);
  return stats;
}

// Full sort via map-time-style partitioning: split `data` into one shard per
// pool thread, bucket each shard by sampled splitters (parallel, lock-free —
// each shard owns its (shard, partition) bucket), then partitioned_merge the
// buckets back into `data`. The kernel-level twin of the
// PartitionedContainer + per-partition merge path inside the runtime.
template <typename T, typename Cmp>
MergeStats partitioned_sort(ThreadPool& pool, std::span<T> data, Cmp cmp,
                            std::size_t num_partitions = 0) {
  MergeStats stats;
  if (data.size() < 2) {
    detail::record_partition_stats(
        stats, std::vector<std::uint64_t>(
                   std::max<std::size_t>(1, num_partitions), data.size()));
    return stats;
  }
  if (num_partitions == 0) num_partitions = pool.size();
  const std::vector<T> splitters = select_splitters(
      std::span<const T>(data.data(), data.size()), num_partitions, cmp);
  const std::size_t P = splitters.size() + 1;

  // Shard-parallel bucketing (the "map-time fill" stage).
  const std::size_t shards =
      std::max<std::size_t>(1, std::min(pool.size(), data.size()));
  const std::size_t per = (data.size() + shards - 1) / shards;
  // buckets[shard][partition]
  std::vector<std::vector<std::vector<T>>> buckets(
      shards, std::vector<std::vector<T>>(P));
  std::vector<std::function<void(std::size_t)>> bucket_tasks;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t begin = s * per;
    if (begin >= data.size()) break;
    const std::size_t end = std::min(begin + per, data.size());
    bucket_tasks.push_back([&, s, begin, end](std::size_t) {
      for (std::size_t i = begin; i < end; ++i) {
        buckets[s][partition_of(splitters, data[i], cmp)].push_back(
            std::move(data[i]));
      }
    });
  }
  pool.run_wave_or_throw(bucket_tasks);

  // Regroup bucket spans by partition and merge back into `data`.
  std::vector<std::vector<std::span<T>>> partitions(P);
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t s = 0; s < shards; ++s) {
      if (!buckets[s][p].empty())
        partitions[p].push_back(std::span<T>(buckets[s][p]));
    }
  }
  return partitioned_merge(pool, std::move(partitions), data.data(), cmp);
}

}  // namespace supmr::merge
