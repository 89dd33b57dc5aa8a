#include "core/job.hpp"

#include <atomic>

#include "common/logging.hpp"
#include "common/test_hooks.hpp"
#include "common/units.hpp"
#include "obs/macros.hpp"
#include "obs/trace.hpp"

namespace supmr::core {

MapReduceJob::MapReduceJob(Application& app,
                           const ingest::IngestSource& source,
                           JobConfig config)
    : app_(app), source_(source), config_(config) {}

MapReduceJob::~MapReduceJob() = default;

void MapReduceJob::attach_runtime(ThreadPool& pool,
                                  ingest::ChunkBufferPool* buffers) {
  pool_ = &pool;
  shared_buffers_ = buffers;
}

Status MapReduceJob::map_round(const ingest::IngestChunk& chunk) {
  SUPMR_RETURN_IF_ERROR(app_.prepare_round(chunk));
  const std::size_t tasks = app_.round_tasks();
  // The "map-claim" mutation hook (conformance harness smoke) stops every
  // round's claim loop one slice short, so the oracle gates must catch a
  // lost slice.
  static const bool lose_slice = test_mutation_enabled("map-claim");
  const std::size_t claimable = lose_slice && tasks > 0 ? tasks - 1 : tasks;
  SUPMR_TRACE_SCOPE_VAR(span, "map", "map.round");
  SUPMR_TRACE_SET_ARG(span, "tasks", tasks);
  SUPMR_TRACE_SET_ARG2(span, "bytes", chunk.size());
  // One wave of min(m, tasks) workers. Worker w claims the next task index
  // and maps it on thread_id w until none remain, so a worker that starts
  // late or runs slowly maps fewer slices instead of holding up the wave.
  // The wave's latch orders every task's writes before the join, so the
  // claim itself needs no ordering.
  std::atomic<std::size_t> next{0};
  const std::vector<std::function<void(std::size_t)>> wave(
      std::min(config_.num_map_threads, tasks),
      [this, &next, claimable](std::size_t worker) {
        for (std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
             t < claimable; t = next.fetch_add(1, std::memory_order_relaxed)) {
          app_.map_task(t, worker);
        }
      });
  if (config_.unpooled_map_waves) {
    ThreadPool::run_wave_unpooled(wave);
  } else if (!pool_->run_wave(wave)) {
    return Status::Internal("map wave dropped: thread pool shut down");
  }
  SUPMR_COUNTER_ADD("map.rounds", 1);
  SUPMR_COUNTER_ADD("map.tasks", tasks);
  ++rounds_;
  return Status::Ok();
}

Status MapReduceJob::finish(JobResult& result, PhaseClock& clock) {
  clock.start(Phase::kReduce);
  {
    SUPMR_TRACE_SCOPE("phase", "reduce");
    SUPMR_RETURN_IF_ERROR(app_.reduce(*pool_, config_.reduce_partitions()));
  }
  clock.stop(Phase::kReduce);

  clock.start(Phase::kMerge);
  {
    SUPMR_TRACE_SCOPE("phase", "merge");
    SUPMR_RETURN_IF_ERROR(
        app_.merge(*pool_, config_.merge_plan(), &merge_stats_));
  }
  clock.stop(Phase::kMerge);

  result.merge_stats = merge_stats_;
  result.result_count = app_.result_count();
  result.map_rounds = rounds_;

  // Fold effectiveness (containers/hash_container.hpp). The container is
  // not mutated after the map waves, so reading here — after reduce/merge —
  // sees the final fold counters.
  result.combine = app_.combine_stats();
  if (result.combine.emits != 0) {
    SUPMR_COUNTER_ADD("container.emits", result.combine.emits);
    SUPMR_COUNTER_ADD("container.keys_folded", result.combine.keys_folded);
    SUPMR_COUNTER_ADD("container.bytes_emitted", result.combine.bytes_emitted);
    SUPMR_COUNTER_ADD("container.bytes_into_merge",
                      result.combine.bytes_into_merge);
    SUPMR_GAUGE_SET("container.table_bytes", result.combine.table_bytes);
  }
  // The job adds no counter after this point.
  result.metrics = obs::MetricsRegistry::global().snapshot();
  return Status::Ok();
}

StatusOr<JobResult> MapReduceJob::run(ExecMode mode) {
  if (config_.num_map_threads == 0 || config_.num_reduce_threads == 0) {
    return Status::InvalidArgument(
        "job: num_map_threads and num_reduce_threads must be >= 1");
  }
  if (pool_ == nullptr) {
    // Single-tenant path: no runtime attached, so the job owns its workers.
    owned_pool_.emplace(
        std::max(config_.num_map_threads, config_.num_reduce_threads));
    pool_ = &*owned_pool_;
  }
  JobResult result;
  PhaseClock clock;
  rounds_ = 0;
  if (obs::TraceRecorder::global().enabled()) {
    obs::TraceRecorder::global().set_thread_name("job.coordinator");
  }
  SUPMR_COUNTER_ADD("job.runs", 1);
  clock.start_total();

  clock.start(Phase::kSetup);
  app_.init(config_.num_map_threads);
  SUPMR_ASSIGN_OR_RETURN(std::vector<ingest::ChunkExtent> plan,
                         source_.plan());
  clock.stop(Phase::kSetup);

  // Every mode reads through the one ingest pipeline, so degrade applies to
  // all of them. The pipelined modes map each chunk as it arrives: the
  // producer ingests chunk c_{i+1} while this (consumer) thread runs the map
  // wave on c_i. The original runtime keeps every chunk and maps them only
  // once the whole input is in, the read-then-compute shape of the paper's
  // baseline.
  const bool original = mode == ExecMode::kOriginal;
  std::vector<ingest::IngestChunk> kept;
  const auto process = [&](ingest::IngestChunk& chunk) {
    if (!original) return map_round(chunk);
    kept.push_back(std::move(chunk));
    return Status::Ok();
  };
  clock.start(Phase::kRead);  // measures total pipeline wall time
  auto pipeline_result = [&]() -> StatusOr<ingest::PipelineStats> {
    SUPMR_TRACE_SCOPE("phase", original ? "read" : "readmap");
    ingest::IngestPipeline pipeline(source_, config_.degrade,
                                    shared_buffers_);
    SUPMR_LOG_INFO("run(%s): %zu ingest chunks over %s",
                   std::string(exec_mode_name(mode)).c_str(), plan.size(),
                   format_bytes(source_.total_bytes()).c_str());
    return pipeline.run_planned(plan, process);
  }();
  clock.stop(Phase::kRead);
  if (!pipeline_result.ok()) return pipeline_result.status();
  result.pipeline = std::move(pipeline_result).value();

  if (original) {
    clock.start(Phase::kMap);
    {
      SUPMR_TRACE_SCOPE("phase", "map");
      for (auto& chunk : kept) {
        SUPMR_RETURN_IF_ERROR(map_round(chunk));
        chunk = {};  // drop its storage (or borrowed view) once mapped
      }
    }
    clock.stop(Phase::kMap);
  }

  SUPMR_RETURN_IF_ERROR(finish(result, clock));
  clock.stop_total();
  result.phases = clock.snapshot();
  if (!original) {
    // Phase attribution in chunked mode (paper Table II reports one
    // combined figure): readmap = pipeline wall time; the residual read
    // component is the consumer's starvation time, the map component is
    // compute time.
    result.phases.has_combined_readmap = true;
    result.phases.readmap_s = result.phases.read_s;
    result.phases.read_s = result.pipeline.consumer_wait_s;
    result.phases.map_s = result.pipeline.process_busy_s;
  }
  result.phases.chunked = !original;
  result.phases.input_bytes = source_.total_bytes();
  // The real extent count in every mode; `chunked` carries the
  // presentation.
  result.phases.num_chunks = result.pipeline.chunks.size();
  result.phases.map_rounds = rounds_;
  result.phases.merge_rounds = merge_stats_.num_rounds();
  result.chunks = result.pipeline.chunks.size();
  result.chunks_skipped = result.pipeline.chunks_skipped;
  result.bytes_skipped = result.pipeline.bytes_skipped;
  if (result.degraded()) {
    SUPMR_LOG_WARN("run(%s): DEGRADED — %llu chunk(s) skipped, %s lost",
                   std::string(exec_mode_name(mode)).c_str(),
                   static_cast<unsigned long long>(result.chunks_skipped),
                   format_bytes(result.bytes_skipped).c_str());
  }
  return result;
}

}  // namespace supmr::core
