// Word count — the paper's ingest-bound benchmark application.
//
// Map tokenizes text into lowercase words and folds counts into the hash
// container (combine-on-insert keeps the intermediate set at vocabulary
// size, not input size); the keyed-app skeleton reduces the stripes and
// sorts the (word, count) pairs by word with the configured merge. The "more
// complicated map phase — checking a container before inserting a key"
// (§VI.B) is exactly the find_or_insert in emit, and is why word count
// overlaps more compute with ingest than sort does.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "apps/keyed_app.hpp"
#include "containers/combiners.hpp"
#include "containers/combining.hpp"

namespace supmr::apps {

class WordCountApp final
    : public KeyedApp<containers::SwitchedContainer<
          containers::SumCombiner<std::uint64_t>>> {
 public:
  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return splits_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override;

  core::CombinerKind combiner_kind() const override {
    return core::CombinerKind::kSum;
  }
  core::ShardKind shard_kind() const override {
    return core::ShardKind::kSortedKeys;
  }

  // Total words mapped (across all rounds); conserved into counts.
  std::uint64_t words_mapped() const;

 private:
  std::vector<std::span<const char>> splits_;
  std::vector<std::uint64_t> words_per_thread_;
};

}  // namespace supmr::apps
