// Linear regression — the scalar-aggregation extreme of the application
// spectrum (a classic Phoenix benchmark).
//
// Input: one "x y" pair per line. Map folds the five sufficient statistics
// (n, Σx, Σy, Σx², Σxy) into the task's own accumulator; the next
// prepare_round and reduce fold those in task order, so the sums do not
// depend on which thread mapped which slice; merge is a no-op. The
// intermediate set is CONSTANT size, so with the ingest chunk pipeline this
// job's time collapses to pure ingest — the best case for SupMR (Conclusion
// 1: long map phase relative to reduce and merge).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/application.hpp"

namespace supmr::apps {

class LinearRegressionApp final : public core::Application {
 public:
  struct Stats {
    std::uint64_t n = 0;
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  };

  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return splits_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override;
  Status reduce(ThreadPool& pool, std::size_t num_partitions) override;
  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               merge::MergeStats* stats) override;
  std::uint64_t result_count() const override { return totals_.n ? 1 : 0; }

  // Fitted model y = slope*x + intercept, valid after reduce.
  double slope() const { return slope_; }
  double intercept() const { return intercept_; }
  const Stats& totals() const { return totals_; }

 private:
  // Folds the round's per-task sums into totals_, in task order.
  void fold_round();

  std::size_t num_mappers_ = 0;
  std::vector<std::span<const char>> splits_;
  std::vector<Stats> per_task_;  // the round's sums, one per task
  Stats totals_;
  double slope_ = 0.0;
  double intercept_ = 0.0;
};

// Generates "x y" lines with y = slope*x + intercept + noise.
std::string generate_xy(std::uint64_t num_points, double slope,
                        double intercept, double noise, std::uint64_t seed);

}  // namespace supmr::apps
