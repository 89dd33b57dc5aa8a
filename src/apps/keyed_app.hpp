// The string-keyed application skeleton.
//
// Word count, pair count, doc-term count, grep and the inverted index emit
// (string key, value) pairs into the striped hash container, which folds
// them with the app's combiner at emit time, and all produce one result per
// distinct key, sorted by key. In the paper's Phoenix++-derived runtime the
// application owns its map logic and the runtime owns the merge (Table I);
// this base is that split for keyed apps, the shape of Metis'
// mapreduce_appbase. A derived app writes init (calling init_container),
// prepare_round and map_task; the skeleton owns the rest:
//
//   reduce  one wave over the reduce partitions: each task drains its hash
//           partition from every stripe (partitions are disjoint, so no
//           locks), then runs the app's finish_partition hook;
//   merge   the partitions are the runs of sort_and_merge
//           (sort_and_merge.hpp): an introsort wave sorts them, then the
//           configured merge (paper §IV) combines them, the single-round
//           parallel_pway_merge for kPWay or the log2(R)-round
//           pairwise_merge baseline for kPairwise;
//   output  one canonical "key\tvalue\n" line per result, in key order.
#pragma once

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apps/sort_and_merge.hpp"
#include "containers/hash_container.hpp"
#include "core/application.hpp"

namespace supmr::apps {

// A value's text length: its decimal digits, and for a list the digits of
// every element plus the commas between them.
inline std::size_t value_chars(std::uint64_t value) {
  std::size_t n = 1;
  while (value >= 10) {
    value /= 10;
    ++n;
  }
  return n;
}

inline std::size_t value_chars(const std::vector<std::uint32_t>& values) {
  std::size_t n = values.empty() ? 0 : values.size() - 1;
  for (const std::uint32_t v : values) n += value_chars(v);
  return n;
}

inline char* write_value(char* p, char* end, std::uint64_t value) {
  return std::to_chars(p, end, value).ptr;
}

// A list value is comma-separated ("f1,f2,...").
inline char* write_value(char* p, char* end,
                         const std::vector<std::uint32_t>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *p++ = ',';
    p = std::to_chars(p, end, values[i]).ptr;
  }
  return p;
}

// One "key\tvalue\n" line per result, in `results` order. Keys never
// contain '\n'; they may contain a tab (doc-term count's "<file>\t<word>").
// One allocation of the exact output size, values written with
// std::to_chars. An upper bound (20 digits per count) would zero-fill about
// twice the bytes of a pair-count payload, which a graph keeps resident as
// the next stage's input.
template <typename V>
std::string keyed_output(
    const std::vector<std::pair<std::string, V>>& results) {
  std::size_t size = 0;
  for (const auto& [key, value] : results) {
    size += key.size() + 2 + value_chars(value);
  }
  std::string out(size, '\0');
  char* p = out.data();
  char* const end = p + out.size();
  for (const auto& [key, value] : results) {
    p = std::copy(key.begin(), key.end(), p);
    *p++ = '\t';
    p = write_value(p, end, value);
    *p++ = '\n';
  }
  assert(p == end);
  return out;
}

template <typename Combiner>
class KeyedApp : public core::Application {
 public:
  using Result = std::pair<std::string, typename Combiner::value_type>;

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
    return sort_and_merge(
        pool, plan, std::exchange(partitions_, {}), results_,
        [](const Result& a, const Result& b) { return a.first < b.first; },
        stats);
  }

  std::uint64_t result_count() const override { return results_.size(); }

  // Keys are unique, so the merge order IS the canonical order.
  std::string canonical_output() const override {
    return keyed_output(results_);
  }

  core::CombineStats combine_stats() const override {
    return container_.stats();
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
  containers::HashContainer<Combiner> container_;
  // merge()'s output; a derived merge() may fold more results into it.
  std::vector<Result> results_;

 private:
  std::vector<std::vector<Result>> partitions_;
};

}  // namespace supmr::apps
