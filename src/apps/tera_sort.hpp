// TeraSort — the paper's merge-bound benchmark application.
//
// Records are fixed-width (100 bytes in the paper), "\r\n"-terminated, with
// a fixed-width binary-comparable key prefix. Map "parses" the chunk —
// copying records into the unlocked array container at claimed slots (the
// paper's §V.B: every thread writes its own key range with no
// synchronization; sort's map is cheap, which is why its ingest overlap gains
// are modest). Reduce checksums partitions (touching every key, as the
// paper's reduce does). Merge is where the runtimes differ:
//   * kPairwise — iterative pairwise merging, log2(R) rounds (Fig. 1), or
//   * kPWay     — run formation + single parallel p-way merge (Fig. 6).
// Both modes sort 16-byte entries — the first 8 key bytes as a big-endian
// integer plus the record's address, comparing the rest of the key only
// when those 8 bytes tie — then gather the records in entry order and free
// the container (docs/merge.md §6).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "apps/split.hpp"
#include "containers/array_container.hpp"
#include "core/application.hpp"

namespace supmr::apps {

struct TeraSortOptions {
  // 1 <= key_bytes <= record_bytes - 2 (core::check_sort_geometry);
  // prepare_round, reduce and merge reject anything else.
  std::uint32_t key_bytes = 10;
  std::uint32_t record_bytes = 100;  // includes the trailing "\r\n"
  bool validate_terminators = true;
};

class TeraSortApp final : public core::Application {
 public:
  explicit TeraSortApp(TeraSortOptions options = {});

  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return tasks_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override;
  Status reduce(ThreadPool& pool, std::size_t num_partitions) override;
  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               merge::MergeStats* stats) override;
  std::uint64_t result_count() const override { return sorted_records_; }
  std::string canonical_output() const override;

  // canonical_output() normalizes equal-key ties by full record bytes, so
  // its global order is exactly full-record memcmp — the kFixedRecords
  // contract.
  core::ShardKind shard_kind() const override {
    return core::ShardKind::kFixedRecords;
  }

  // Sorted output (result_count() * record_bytes bytes), valid after merge.
  std::string_view sorted_data() const {
    return std::string_view(sorted_.get(),
                            sorted_records_ * options_.record_bytes);
  }

  // Sum over all keys' first 8 bytes — computed by reduce; order-invariant,
  // so it must match between chunked and unchunked runs.
  std::uint64_t key_checksum() const { return checksum_; }

  std::uint64_t malformed_records() const {
    return malformed_.load(std::memory_order_relaxed);
  }

  const TeraSortOptions& options() const { return options_; }

 private:
  TeraSortOptions options_;
  Status geometry_;  // whether options_ pass core::check_sort_geometry
  std::size_t num_mappers_ = 0;
  containers::ArrayContainer container_;
  std::vector<RecordSlice> tasks_;
  const char* round_src_ = nullptr;  // the round's first record
  char* round_dst_ = nullptr;        // its claimed slot
  std::uint64_t checksum_ = 0;
  std::atomic<std::uint64_t> malformed_{0};
  std::unique_ptr<char[]> sorted_;
  std::uint64_t sorted_records_ = 0;
};

}  // namespace supmr::apps
