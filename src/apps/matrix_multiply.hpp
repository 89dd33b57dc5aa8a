// Dense matrix multiply — the COMPUTE-BOUND end of the application spectrum.
//
// C = A x B with A resident (the model/operator matrix) and B streamed from
// primary storage column-by-column: each fixed-width input record is one
// column of B (n doubles, binary), each map task computes the corresponding
// columns of C into the unlocked array container. Map cost is O(n^2) per n*8
// input bytes, so for modest n the job is map-bound — the regime where the
// ingest chunk pipeline hides ingest entirely (the paper's §VI.C.3
// observation inverted: "a job with a longer and more complicated map phase
// would achieve better speedup").
//
// Reduce computes the Frobenius norm of C (touching every output once);
// merge is a no-op (columns are produced in input order).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/split.hpp"
#include "containers/array_container.hpp"
#include "core/application.hpp"

namespace supmr::apps {

class MatrixMultiplyApp final : public core::Application {
 public:
  // `a` is row-major n x n; input records must be n*8-byte columns of B.
  MatrixMultiplyApp(std::vector<double> a, std::size_t n);

  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return tasks_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override;
  Status reduce(ThreadPool& pool, std::size_t num_partitions) override;
  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               merge::MergeStats* stats) override;
  std::uint64_t result_count() const override { return container_.size(); }

  // Column `j` of C (n doubles), valid after the map rounds.
  const double* column(std::uint64_t j) const {
    return reinterpret_cast<const double*>(container_.record(j).data());
  }
  std::uint64_t columns() const { return container_.size(); }
  double frobenius_norm() const { return frobenius_; }
  std::size_t n() const { return n_; }

  // Serializes a row-major matrix's COLUMNS as fixed-width records (the
  // device format this app ingests: record j = column j of `m`).
  static std::string columns_to_records(const std::vector<double>& m,
                                        std::size_t n);

 private:
  std::vector<double> a_;
  std::size_t n_;
  std::size_t num_mappers_ = 0;
  containers::ArrayContainer container_;
  std::vector<RecordSlice> tasks_;
  const char* round_src_ = nullptr;  // the round's first column
  std::uint64_t round_slot_ = 0;     // its claimed container slot
  double frobenius_ = 0.0;
};

}  // namespace supmr::apps
