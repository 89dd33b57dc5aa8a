// Run set: the sorted (key, count) runs a budgeted word count spills
// (apps/word_count.hpp) — external aggregation for intermediate sets larger
// than the memory budget.
//
// The paper's hash container assumes the (word, count) table fits in memory
// — true for 155 GB of English on a 384 GB box, false for high-cardinality
// keys (URLs, n-grams) or smaller machines. A budgeted word count writes its
// table here as one sorted run whenever the table outgrows the budget, and
// fold() merges every run with the job's in-memory results in one loser-tree
// pass, summing equal keys — the single-round merge argument of §IV applied
// to aggregation.
//
// Each run is a spill file (storage::write_spill_file, so two writers that
// share a directory never collide) of [u32 key_len][key bytes][u64 count]
// records. Runs are read back with stdio, not through a storage::Device: a
// run is the runtime's own scratch, never a fault-injected or retried input.
// fold() and the destructor remove the run files, so a job that fails after
// a spill leaves none behind once its app is gone.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace supmr::containers {

class RunSet {
 public:
  using Pair = std::pair<std::string, std::uint64_t>;

  // fold() reads each run this many bytes at a time (more for a longer
  // record).
  static constexpr std::size_t kReadBytes = 64 * 1024;

  // Runs go to files in `dir`.
  explicit RunSet(std::string dir) : dir_(std::move(dir)) {}
  ~RunSet() { clear(); }

  RunSet(const RunSet&) = delete;
  RunSet& operator=(const RunSet&) = delete;

  // Writes `sorted` (ascending, unique keys) as one run.
  Status write(const std::vector<Pair>& sorted);

  // Merges every run and `live` (ascending, unique keys) into one ascending
  // vector with unique keys, summing the counts of equal keys, then removes
  // the runs. IoError if a run cannot be reopened or ends inside a record.
  StatusOr<std::vector<Pair>> fold(std::vector<Pair> live);

  // Runs written and not yet folded.
  std::size_t size() const { return paths_.size(); }

 private:
  // Removes every run file.
  void clear();

  std::string dir_;
  std::vector<std::string> paths_;
};

}  // namespace supmr::containers
