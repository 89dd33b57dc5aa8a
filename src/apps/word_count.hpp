// Word count — the paper's ingest-bound benchmark application.
//
// Map tokenizes text into lowercase words and folds counts into the hash
// container (combine-on-insert keeps the intermediate set at vocabulary
// size, not input size); the keyed-app skeleton reduces the stripes and
// sorts the (word, count) pairs by word with the configured merge. The "more
// complicated map phase — checking a container before inserting a key"
// (§VI.B) is exactly the find_or_insert in emit, and is why word count
// overlaps more compute with ingest than sort does.
//
// Under a spill budget (the CLI's --budget, the xwordcount spec app) the
// table is held to the budget for vocabularies larger than memory: at each
// round boundary — coordinator context, no mapper running — a table whose
// footprint exceeds the budget is drained into one sorted run
// (containers::RunSet) and released. After the configured merge, one
// loser-tree pass folds the runs back into the results, so the output bytes
// are the same at any budget.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "apps/keyed_app.hpp"
#include "containers/combiners.hpp"
#include "containers/combining.hpp"
#include "containers/run_set.hpp"

namespace supmr::apps {

class WordCountApp final
    : public KeyedApp<containers::SwitchedContainer<
          containers::SumCombiner<std::uint64_t>>> {
 public:
  WordCountApp() = default;
  // Word count under a spill budget of `budget_bytes`, spilling into `runs`.
  // A budgeted run keeps the default table: it declares no combiner.
  WordCountApp(std::uint64_t budget_bytes,
               std::unique_ptr<containers::RunSet> runs)
      : budget_bytes_(budget_bytes), runs_(std::move(runs)) {}

  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return splits_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override;
  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               merge::MergeStats* stats) override;
  Status use_container(core::ContainerMode mode) override;

  core::CombinerKind combiner_kind() const override {
    return runs_ ? core::CombinerKind::kNone : core::CombinerKind::kSum;
  }
  core::ShardKind shard_kind() const override {
    return core::ShardKind::kSortedKeys;
  }

  // Total words mapped (across all rounds); conserved into counts.
  std::uint64_t words_mapped() const;
  // Runs the budget spilled this job.
  std::size_t runs_spilled() const { return runs_spilled_; }
  // The table's resident footprint now.
  std::uint64_t memory_bytes() const { return container_.memory_bytes(); }

 private:
  std::uint64_t budget_bytes_ = 0;
  std::unique_ptr<containers::RunSet> runs_;  // null: no budget
  std::size_t runs_spilled_ = 0;
  std::vector<std::span<const char>> splits_;
  std::vector<std::uint64_t> words_per_thread_;
};

}  // namespace supmr::apps
