// Per-document term counts — a root stage of the TF-IDF chain
// (docs/graphs.md).
//
// The multi-file sibling of word count: map tokenizes every file of the
// coalesced chunk and folds ("<file_id>\t<word>", 1) into the hash
// container, so the reduce/merge output is the per-document term frequency
// table. Like the inverted index it REQUIRES intra-file chunking
// (MultiFileSource): file identity comes from the chunk's FileSpans and
// must survive coalescing. Canonical lines are "<file_id>\t<word>\t<count>"
// in composite-key order; the TF-IDF join tells them apart from the
// two-field inverted-index lines by tab count.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/keyed_app.hpp"
#include "apps/split.hpp"
#include "containers/combiners.hpp"
#include "containers/combining.hpp"

namespace supmr::apps {

class DocTermCountApp final
    : public KeyedApp<containers::SwitchedContainer<
          containers::SumCombiner<std::uint64_t>>> {
 public:
  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return tasks_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override;

  core::CombinerKind combiner_kind() const override {
    return core::CombinerKind::kSum;
  }

 private:
  std::vector<std::vector<FileSplit>> tasks_;
};

}  // namespace supmr::apps
