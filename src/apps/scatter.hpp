// Scatter — the bucketing stage of the multi-round sample-sort chain
// (docs/graphs.md).
//
// Round one of a sample-sort: route every fixed-width record into a
// key-range bucket and emit the records grouped by bucket, leaving the
// within-bucket ordering to the downstream TeraSortApp stage. Splitters are
// fixed-prefix (first key byte, evenly split into `buckets` ranges) rather
// than sampled from the first chunk — sampling would make the routing
// depend on chunk geometry, and a stage's canonical output must be
// chunking-independent. Within a bucket records keep their input order
// (ties broken by the global record index, recovered from the chunk's
// device offset), so the output is a deterministic permutation of the
// input: still valid CrlfFormat records for the next stage to ingest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/split.hpp"
#include "core/application.hpp"

namespace supmr::apps {

struct ScatterOptions {
  std::uint32_t key_bytes = 10;
  std::uint32_t record_bytes = 100;  // includes the trailing "\r\n"
  std::uint32_t buckets = 16;
};

class ScatterApp final : public core::Application {
 public:
  explicit ScatterApp(ScatterOptions options = {}) : options_(options) {}

  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return tasks_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override;
  Status reduce(ThreadPool& pool, std::size_t num_partitions) override;
  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               merge::MergeStats* stats) override;
  std::uint64_t result_count() const override { return records_; }
  std::string canonical_output() const override;

  // Records concatenated in (bucket, input order) — result_count() *
  // record_bytes bytes, valid after merge.
  const std::vector<char>& scattered() const { return output_; }
  std::uint64_t malformed_records() const { return malformed_; }

 private:
  struct Routed {
    std::uint64_t order = 0;  // bucket << 48 | global record index
    std::uint64_t src = 0;    // byte offset of the record in staged_
  };
  ScatterOptions options_;
  std::size_t num_mappers_ = 0;
  std::vector<RecordSlice> tasks_;
  std::uint64_t round_offset_ = 0;    // device offset of the round's records
  std::uint64_t round_stage_at_ = 0;  // their offset in staged_
  std::vector<std::vector<Routed>> stripes_;  // per-thread routing entries
  std::vector<char> staged_;                  // record bytes, arrival order
  std::vector<Routed> routed_;
  std::vector<char> output_;
  std::uint64_t records_ = 0;
  std::uint64_t malformed_ = 0;
};

}  // namespace supmr::apps
