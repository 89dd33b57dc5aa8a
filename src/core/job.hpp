// The SupMR runtime: scale-up MapReduce with an ingest chunk pipeline.
//
// One entry point, keyed by ExecMode (typically JobConfig::mode):
//
//   run(ExecMode::kOriginal)  — the ORIGINAL runtime: ingest the entire
//                               input (read phase), one map wave over input
//                               splits (map phase), reduce, merge. Fig. 1.
//   run(ExecMode::kIngestMR)  — SupMR (paper Table I): the ingest chunk
//                               pipeline overlaps reading chunk c_{i+1} with
//                               mapping c_i across n+1 rounds; read+map
//                               become one combined phase.
//
// Both modes read the extents the source planned, through the one ingest
// pipeline, and share reduce/merge (JobConfig::merge_mode selects the merge
// algorithm) and degrade mode (JobConfig::degrade: skip a chunk whose read
// failed, with accounting). Read retries happen below the source, in the
// device stack (fault::RetryingDevice). See docs/fault-tolerance.md.
#pragma once

#include <optional>

#include "common/phase_timer.hpp"
#include "common/status.hpp"
#include "core/application.hpp"
#include "core/job_config.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/source.hpp"
#include "obs/metrics.hpp"

namespace supmr::core {

struct JobResult {
  PhaseBreakdown phases;
  ingest::PipelineStats pipeline;   // the ingest pipeline's stats
  merge::MergeStats merge_stats;
  // Fold-effectiveness accounting (Application::combine_stats): the keyed
  // apps' hash-container fold, all zero for every other app.
  CombineStats combine;
  obs::MetricsSnapshot metrics;     // registry snapshot taken at run end
  std::uint64_t result_count = 0;
  std::uint64_t map_rounds = 0;
  std::uint64_t chunks = 0;
  // Degrade-mode accounting (JobConfig::degrade): poisoned chunks
  // the run skipped, and the input bytes lost with them. A run with
  // chunks_skipped > 0 completed but its output covers less than the full
  // input — callers that need exactness must check this.
  std::uint64_t chunks_skipped = 0;
  std::uint64_t bytes_skipped = 0;

  bool degraded() const { return chunks_skipped > 0; }

  // Speedup of another run's total time over this run's.
  double speedup_vs(const JobResult& other) const {
    return other.phases.total_s / phases.total_s;
  }
};

class MapReduceJob {
 public:
  // `app` and `source` must outlive the job.
  MapReduceJob(Application& app, const ingest::IngestSource& source,
               JobConfig config);
  ~MapReduceJob();

  MapReduceJob(const MapReduceJob&) = delete;
  MapReduceJob& operator=(const MapReduceJob&) = delete;

  // Unified entry point; callers normally pass config().mode.
  StatusOr<JobResult> run(ExecMode mode);

  // Runs this job on shared, leased runtime resources instead of private
  // ones: map/reduce/merge waves go to `pool` (which may serve other jobs
  // concurrently — wave completion is per-wave, see ThreadPool::run_wave),
  // and the ingest pipeline recycles chunk buffers through `buffers` when
  // non-null. Must be called before run(); both referents must outlive the
  // job. The JobManager is the intended caller.
  void attach_runtime(ThreadPool& pool,
                      ingest::ChunkBufferPool* buffers = nullptr);

  const JobConfig& config() const { return config_; }

 private:
  Status map_round(const ingest::IngestChunk& chunk);
  Status finish(JobResult& result, PhaseClock& clock);

  Application& app_;
  const ingest::IngestSource& source_;
  JobConfig config_;
  // pool_ points at owned_pool_ (single-tenant: the job spins up its own
  // workers) or at an attached shared pool (multi-tenant: the JobManager
  // leases slices of one process-wide pool).
  std::optional<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  ingest::ChunkBufferPool* shared_buffers_ = nullptr;
  std::uint64_t rounds_ = 0;
  merge::MergeStats merge_stats_;
};

}  // namespace supmr::core
