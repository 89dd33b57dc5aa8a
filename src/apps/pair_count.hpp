// Pair count — adjacent-word co-occurrence, the first stage of the PMI
// chain (docs/graphs.md).
//
// Map tokenizes each line and folds every adjacent pair "w1 w2" into the
// hash container, exactly the word-count shape but with bigram keys. Splits
// are cut at LINE boundaries, not word boundaries: a pair never spans a
// newline, so cutting between lines keeps the emitted multiset independent
// of both chunking (LineFormat already guarantees chunk edges sit on
// newlines) and the split fan-out inside a chunk. Pair keys contain a space
// but never a tab, keeping "key\tcount" parseable by the PMI join.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "apps/keyed_app.hpp"
#include "containers/combiners.hpp"
#include "containers/combining.hpp"

namespace supmr::apps {

class PairCountApp final
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

 private:
  std::vector<std::span<const char>> splits_;
};

// Invokes fn("w1 w2") for every adjacent word pair within each line of
// `text` (pairs never cross newlines). Exposed for tests.
void for_each_pair(std::span<const char> text,
                   const std::function<void(std::string_view)>& fn);

}  // namespace supmr::apps
