// K-means clustering — an ITERATIVE MapReduce workload.
//
// The paper's related work (HaLoop, Twister, CGL-MapReduce) motivates
// iterative jobs; SupMR's persistent-container change (§III.C) is exactly
// what Twister does for iteration. This app drives one MapReduce job per
// k-means iteration through the same runtime (including the ingest chunk
// pipeline — the points are re-ingested each iteration, so a slow device
// pays the ingest bottleneck every round, making the pipeline's benefit
// multiply with iteration count).
//
// Map: assign each point to its nearest centroid and fold (sum, count) into
// the task's row of per-cluster accumulators. The next prepare_round and
// reduce fold the rows in task order, so the floating-point sums do not
// depend on which thread mapped which slice; reduce then produces the new
// centroids. Merge: no-op. run_kmeans() iterates to convergence.
//
// Input format: one point per line, `dim` space-separated ASCII doubles.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/application.hpp"
#include "ingest/source.hpp"

namespace supmr::apps {

struct KMeansOptions {
  std::size_t clusters = 4;
  std::size_t dim = 2;
};

// Per-cluster accumulator: coordinate sums + point count.
struct ClusterAccum {
  std::vector<double> sum;
  std::uint64_t count = 0;
};

class KMeansApp final : public core::Application {
 public:
  KMeansApp(KMeansOptions options, std::vector<std::vector<double>> centroids);

  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return splits_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override;
  Status reduce(ThreadPool& pool, std::size_t num_partitions) override;
  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               merge::MergeStats* stats) override;
  std::uint64_t result_count() const override { return new_centroids_.size(); }

  // New centroids, valid after reduce. Empty clusters keep their previous
  // centroid.
  const std::vector<std::vector<double>>& new_centroids() const {
    return new_centroids_;
  }
  // Points assigned to a cluster, valid after reduce.
  std::uint64_t points_assigned() const;

  // Nearest-centroid index for `point` under the CURRENT centroids.
  std::size_t nearest(const double* point) const;

 private:
  // Folds the round's per-task rows into totals_, in task order.
  void fold_round();

  KMeansOptions options_;
  std::vector<std::vector<double>> centroids_;
  std::size_t num_mappers_ = 0;
  std::vector<std::span<const char>> splits_;
  std::vector<std::vector<ClusterAccum>> per_task_;  // the round's rows
  std::vector<ClusterAccum> totals_;                  // per cluster
  std::vector<std::vector<double>> new_centroids_;
};

struct KMeansResult {
  std::vector<std::vector<double>> centroids;
  std::size_t iterations = 0;
  double final_shift = 0.0;        // max centroid movement in the last iter
  std::uint64_t points = 0;
  double total_s = 0.0;
};

// Runs k-means to convergence (max centroid shift < epsilon) or max_iters.
// Each iteration is a full MapReduce job over `source` with `config`.
// `initial_centroids` must have options.clusters entries of options.dim.
StatusOr<KMeansResult> run_kmeans(
    const ingest::IngestSource& source, const core::JobConfig& config,
    const KMeansOptions& options,
    std::vector<std::vector<double>> initial_centroids,
    std::size_t max_iters = 50, double epsilon = 1e-6);

}  // namespace supmr::apps
