// Grep — multi-pattern occurrence counting over text.
//
// A filter-style workload (cf. Rhea [15] in the paper's related work): map
// scans each line for every pattern and emits (pattern, occurrences); the
// intermediate set is tiny (one key per pattern), the opposite extreme from
// sort. Included as a third application point on the "job phase complexity"
// spectrum Conclusion 1 describes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/keyed_app.hpp"
#include "containers/combiners.hpp"

namespace supmr::apps {

// Results are (pattern, total occurrences), sorted by pattern; patterns
// with zero matches are absent.
class GrepApp final
    : public KeyedApp<containers::SumCombiner<std::uint64_t>> {
 public:
  explicit GrepApp(std::vector<std::string> patterns)
      : patterns_(std::move(patterns)) {}

  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return splits_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override;

  core::ShardKind shard_kind() const override {
    return core::ShardKind::kSortedKeys;
  }

  // Count of input lines scanned (all rounds).
  std::uint64_t lines_scanned() const;

 private:
  std::vector<std::string> patterns_;
  std::vector<std::span<const char>> splits_;
  std::vector<std::uint64_t> lines_per_thread_;
};

// Splits a comma-separated pattern list ("th,he,zz"), the form the CLI and
// replay specs give; empty entries are kept and never match.
std::vector<std::string> split_patterns(std::string_view csv);

// Counts non-overlapping occurrences of `needle` in `haystack` (memmem-style
// scan). Exposed for tests.
std::uint64_t count_occurrences(std::string_view haystack,
                                std::string_view needle);

}  // namespace supmr::apps
