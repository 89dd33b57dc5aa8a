// Histogram — dense-key application on the FixedKvArray container.
//
// Input: newline-separated ASCII integers. Map parses each value and folds
// it into its bin on the thread's dense stripe (a direct array index — no
// hashing, the Phoenix++ array-container workload). Reduce folds stripes by
// bin range in parallel; there is nothing to merge (bins are already
// ordered), so merge is a no-op — the opposite extreme from sort on the
// phase-complexity spectrum of Conclusion 1.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "containers/combiners.hpp"
#include "containers/fixed_kv_array.hpp"
#include "core/application.hpp"

namespace supmr::apps {

struct HistogramOptions {
  std::int64_t lo = 0;
  std::int64_t hi = 256;   // exclusive
  std::size_t bins = 256;
};

class HistogramApp final : public core::Application {
 public:
  explicit HistogramApp(HistogramOptions options = {})
      : options_(options) {}

  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return splits_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override;
  Status reduce(ThreadPool& pool, std::size_t num_partitions) override;
  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               merge::MergeStats* stats) override;
  std::uint64_t result_count() const override { return counts_.size(); }
  std::string canonical_output() const override;

  // Zero-padded bin keys, then the dropped/parsed trailers: one sorted
  // key table, so node outputs merge like word counts.
  core::ShardKind shard_kind() const override {
    return core::ShardKind::kSortedKeys;
  }

  // Per-bin counts, valid after reduce.
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::uint64_t values_parsed() const;
  std::uint64_t values_out_of_range() const;

  // The bin of a value in [lo, hi), and the first value of bin `bin`
  // (bin_start(bins) == hi): the CLI's bin labels.
  std::size_t bin_of(std::int64_t value) const;
  std::int64_t bin_start(std::size_t bin) const;

 private:
  // b - a for a <= b, as an unsigned difference: hi - lo reaches
  // 2^64 - 1, which overflows std::int64_t.
  static std::uint64_t distance(std::int64_t a, std::int64_t b) {
    return static_cast<std::uint64_t>(b) - static_cast<std::uint64_t>(a);
  }
  std::uint64_t range() const { return distance(options_.lo, options_.hi); }

  HistogramOptions options_;
  std::size_t num_mappers_ = 0;
  // Dense per-thread bin stripes: each emit folds into its bin.
  containers::FixedKvArray<containers::SumCombiner<std::uint64_t>> container_;
  std::vector<std::span<const char>> splits_;
  std::vector<std::uint64_t> parsed_per_thread_;
  std::vector<std::uint64_t> dropped_per_thread_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace supmr::apps
