#include "ref/ref_job.hpp"

#include "core/job_config.hpp"
#include "ingest/chunk.hpp"
#include "threading/thread_pool.hpp"

namespace supmr::ref {

StatusOr<RefResult> run_ref(core::Application& app,
                            const ingest::IngestSource& source) {
  app.init(1);
  SUPMR_ASSIGN_OR_RETURN(auto extents, source.plan());

  RefResult result;
  ingest::IngestChunk chunk;
  for (const auto& extent : extents) {
    SUPMR_RETURN_IF_ERROR(source.read_chunk(extent, chunk));
    SUPMR_RETURN_IF_ERROR(app.prepare_round(chunk));
    // One mapper: the one worker of the round's wave claims every task, so
    // they run strictly in task order on thread 0.
    const std::size_t tasks = app.round_tasks();
    for (std::size_t t = 0; t < tasks; ++t) app.map_task(t, 0);
    ++result.chunks;
  }

  ThreadPool pool(1);
  SUPMR_RETURN_IF_ERROR(app.reduce(pool, 1));
  SUPMR_RETURN_IF_ERROR(app.merge(
      pool, core::MergePlan{core::MergeMode::kPairwise, 1}, nullptr));
  result.canonical = app.canonical_output();
  result.result_count = app.result_count();
  return result;
}

}  // namespace supmr::ref
