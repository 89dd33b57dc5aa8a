// External sorter: fixed-width record sort under a memory budget.
//
// The paper's testbed holds the whole 60 GB input in 384 GB of RAM; a
// production scale-up deployment eventually meets a dataset that does not
// fit. This module extends SupMR's merge machinery to that regime with the
// classic external merge sort, built from the same kernels:
//   * ingest side: add() buffers records; when the budget fills, the buffer
//     is sorted (parallel sample sort over an index array) and written out
//     as one sorted RUN to a fresh mkstemp file in the spill directory;
//   * merge side: finish() streams all runs (plus the in-memory residue)
//     through a single merge::LoserTree over run cursors — one round,
//     exactly the paper's p-way merge argument applied to disk-resident
//     runs — and emits the globally sorted output through a callback.
// Spill files are deleted as their runs drain.
//
// Not thread-safe: one producer calls add()/finish(); the internal sorting
// parallelizes on the caller's pool.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "merge/stats.hpp"
#include "storage/device.hpp"
#include "threading/thread_pool.hpp"

namespace supmr::merge {

struct ExternalSorterOptions {
  std::uint32_t record_bytes = 100;
  std::uint32_t key_bytes = 10;
  // In-memory buffer; one run is spilled each time it fills.
  std::uint64_t memory_budget_bytes = 64 << 20;
  // Directory for spill files (must exist).
  std::string spill_dir = "/tmp";
  // Read-ahead per run during the final merge.
  std::uint64_t merge_read_bytes = 1 << 20;
  // Device factory for reopening spill files during the final merge. Null =
  // FileDevice::open. Spill reads go through the same Device seam as
  // ingest, so a factory that wraps the file in a fault::RetryingDevice
  // absorbs transient read faults here too (tests also substitute
  // fault-injecting stacks).
  std::function<StatusOr<std::shared_ptr<const storage::Device>>(
      const std::string&)>
      open_spill;
};

class ExternalSorter {
 public:
  ExternalSorter(ThreadPool& pool, ExternalSorterOptions options);
  ~ExternalSorter();

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  // Appends whole records (size must be a multiple of record_bytes).
  Status add(std::span<const char> records);

  // Sink receives the sorted output in record-aligned slabs, in order.
  using Sink = std::function<Status(std::span<const char>)>;

  // Sorts everything added so far and streams it to `sink`. May be called
  // once. Returns merge statistics (single round over runs()+1 sources).
  StatusOr<MergeStats> finish(const Sink& sink);

  std::uint64_t records_added() const { return records_added_; }
  std::size_t runs_spilled() const { return spills_.size(); }

 private:
  Status spill_buffer();
  void sort_buffer(std::vector<std::uint64_t>& index);

  ThreadPool& pool_;
  ExternalSorterOptions options_;
  std::vector<char> buffer_;
  std::uint64_t buffered_records_ = 0;
  std::uint64_t records_added_ = 0;
  std::vector<std::string> spills_;  // one sorted run file per spill
  bool finished_ = false;
};

}  // namespace supmr::merge
