// The string-keyed application skeleton.
//
// Word count, pair count, doc-term count, grep and the inverted index emit
// (string key, value) pairs into a striped hash container and all produce
// one result per distinct key, sorted by key. In the paper's
// Phoenix++-derived runtime the application owns its map logic and the
// runtime owns the merge (Table I); this base is that split for keyed apps,
// the shape of Metis' mapreduce_appbase. A derived app writes init (calling
// init_container), prepare_round and map_task; the skeleton owns the rest:
//
//   reduce  one wave over the reduce partitions: each task drains its hash
//           partition from every stripe (partitions are disjoint, so no
//           locks), then runs the app's finish_partition hook;
//   merge   an introsort wave turns the partitions into sorted runs, then
//           the configured merge (paper §IV) combines them: the
//           single-round parallel_pway_merge for kPWay and kPartitioned, the
//           log2(R)-round pairwise_merge baseline for kPairwise;
//   output  one canonical "key\tvalue\n" line per result, in key order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/application.hpp"
#include "merge/introsort.hpp"
#include "merge/pairwise.hpp"
#include "merge/pway.hpp"

namespace supmr::apps {

inline void append_value(std::string& out, std::uint64_t value) {
  out += std::to_string(value);
}

// A list value is comma-separated ("f1,f2,...").
inline void append_value(std::string& out,
                         const std::vector<std::uint32_t>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
}

// One "key\tvalue\n" line per result, in `results` order. Keys never
// contain '\n'; they may contain a tab (doc-term count's "<file>\t<word>").
template <typename V>
std::string keyed_output(
    const std::vector<std::pair<std::string, V>>& results) {
  std::string out;
  for (const auto& [key, value] : results) {
    out += key;
    out += '\t';
    append_value(out, value);
    out += '\n';
  }
  return out;
}

template <typename Container>
class KeyedApp : public core::Application {
 public:
  using Result = std::pair<std::string, typename Container::value_type>;

  Status reduce(ThreadPool& pool, std::size_t num_partitions) override {
    partitions_.assign(num_partitions, {});
    std::vector<std::function<void(std::size_t)>> tasks;
    tasks.reserve(num_partitions);
    for (std::size_t p = 0; p < num_partitions; ++p) {
      tasks.push_back([this, p, num_partitions](std::size_t) {
        partitions_[p] = container_.reduce_partition(p, num_partitions);
        finish_partition(partitions_[p]);
      });
    }
    if (!pool.run_wave(tasks))
      return Status::Internal("reduce wave dropped: thread pool shut down");
    return Status::Ok();
  }

  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               merge::MergeStats* stats) override {
    auto by_key = [](const Result& a, const Result& b) {
      return a.first < b.first;
    };

    // Sort each partition in parallel (run formation), partitions become
    // the sorted runs, then merge with the configured algorithm.
    std::vector<std::function<void(std::size_t)>> sort_tasks;
    for (auto& part : partitions_) {
      sort_tasks.push_back([&part, &by_key](std::size_t) {
        merge::introsort(part.begin(), part.end(), by_key);
      });
    }
    if (!pool.run_wave(sort_tasks))
      return Status::Internal("merge sort wave dropped: thread pool shut down");

    std::uint64_t total = 0;
    for (const auto& part : partitions_) total += part.size();
    results_.resize(total);

    merge::MergeStats local;
    if (plan.mode != core::MergeMode::kPairwise) {
      // kPWay and kPartitioned share the single-round p-way kernel: the hash
      // partitions are the sorted runs, and the key-space split happens
      // inside parallel_pway_merge. kPartitioned pins the worker count to
      // the plan's partition count (its reduce partitions are hash-sharded,
      // not key-range-sharded, so merge-time splitting is the partitioned
      // path).
      std::vector<std::span<const Result>> runs;
      runs.reserve(partitions_.size());
      for (const auto& part : partitions_)
        runs.push_back(std::span<const Result>(part.data(), part.size()));
      const std::size_t p = plan.mode == core::MergeMode::kPartitioned
                                ? plan.partitions
                                : 0;  // 0 = pool-sized
      local = merge::parallel_pway_merge(pool, std::move(runs),
                                         results_.data(), by_key, p);
    } else {
      // Pairwise baseline: pack runs back-to-back into results_, then merge.
      std::vector<std::span<Result>> runs;
      std::size_t offset = 0;
      for (auto& part : partitions_) {
        std::move(part.begin(), part.end(), results_.begin() + offset);
        runs.push_back(
            std::span<Result>(results_.data() + offset, part.size()));
        offset += part.size();
      }
      local = merge::pairwise_merge(
          pool, std::move(runs),
          std::span<Result>(results_.data(), results_.size()), by_key);
    }
    partitions_.clear();
    if (stats != nullptr) *stats = std::move(local);
    return Status::Ok();
  }

  std::uint64_t result_count() const override { return results_.size(); }

  // Keys are unique, so the merge order IS the canonical order.
  std::string canonical_output() const override {
    return keyed_output(results_);
  }

  // An app whose container carries a combining table (SwitchedContainer)
  // switches its emit seam here; any other container keeps the base
  // contract, which rejects everything but kDefault.
  Status use_container(core::ContainerMode mode) override {
    if constexpr (kSwitchable) {
      container_.select(mode);
      return Status::Ok();
    } else {
      return core::Application::use_container(mode);
    }
  }

  core::CombineStats combine_stats() const override {
    if constexpr (kSwitchable) return container_.stats();
    return {};
  }

  // Final output: one (key, value) per distinct key, sorted by key.
  const std::vector<Result>& results() const { return results_; }

 protected:
  // Call from init(): sizes the stripes (later calls keep them, paper
  // §III.C) and drops any earlier job's results.
  void init_container(std::size_t num_map_threads,
                      std::size_t capacity_hint) {
    num_mappers_ = num_map_threads;
    container_.init(num_map_threads, capacity_hint);
    partitions_.clear();
    results_.clear();
  }

  // Runs inside the reduce wave on each drained partition, before the
  // merge sorts it.
  virtual void finish_partition(std::vector<Result>& /*partition*/) {}

  std::size_t num_mappers_ = 0;
  Container container_;
  // merge()'s output; a derived merge() may fold more results into it.
  std::vector<Result> results_;

 private:
  static constexpr bool kSwitchable = requires(Container& c) {
    c.select(core::ContainerMode::kDefault);
  };

  std::vector<std::vector<Result>> partitions_;
};

}  // namespace supmr::apps
