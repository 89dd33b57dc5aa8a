// Inverted index — word -> sorted list of files containing it.
//
// The many-small-files application: it requires intra-file chunking
// (MultiFileSource), because file identity must survive chunk coalescing —
// the chunk's FileSpans say which file each byte came from. Map emits
// (word, file_id) with an append combiner; each reduce partition sorts and
// de-duplicates its posting lists; the merge sorts the dictionary.
// Canonical lines are "word\tf1,f2,...".
#pragma once

#include <cstdint>
#include <vector>

#include "apps/keyed_app.hpp"
#include "apps/split.hpp"
#include "containers/combiners.hpp"

namespace supmr::apps {

class InvertedIndexApp final
    : public KeyedApp<containers::AppendCombiner<std::uint32_t>> {
 public:
  // (word, ids of the files containing it), ids sorted and unique.
  using Posting = Result;

  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return tasks_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override;

  // The index, sorted by word.
  const std::vector<Posting>& index() const { return results(); }

 private:
  void finish_partition(std::vector<Posting>& partition) override;

  // Each round task covers one or more whole files (postings are
  // position-free, so the span granularity is the file).
  std::vector<std::vector<FileSplit>> tasks_;
};

}  // namespace supmr::apps
