#include "traced.hpp"

#include "core/job.hpp"

namespace supmr::perfbench {

namespace sn = span_name;

StatusOr<std::vector<ingest::ChunkExtent>> TracedSource::plan() const {
  ScopedSpan span(log_, sn::kPlan, ctx_);
  return inner_.plan();
}

Status TracedSource::read_chunk(const ingest::ChunkExtent& extent,
                                ingest::IngestChunk& out) const {
  ScopedSpan span(log_, sn::kRead, ctx_);
  return inner_.read_chunk(extent, out);
}

void TracedApp::init(std::size_t num_map_threads) {
  if (node_ids_ != nullptr) ctx_.node = node_ids_->fetch_add(1);
  ScopedSpan span(log_, sn::kInit, ctx_);
  inner_->init(num_map_threads);
}

Status TracedApp::prepare_round(const ingest::IngestChunk& chunk) {
  ++round_;
  ScopedSpan span(log_, sn::kPrepare, ctx_, round_);
  return inner_->prepare_round(chunk);
}

void TracedApp::map_task(std::size_t task, std::size_t thread_id) {
  ScopedSpan span(log_, sn::kMapTask, ctx_, round_);
  inner_->map_task(task, thread_id);
}

Status TracedApp::reduce(ThreadPool& pool, std::size_t num_partitions) {
  ScopedSpan span(log_, sn::kReduce, ctx_);
  return inner_->reduce(pool, num_partitions);
}

Status TracedApp::merge(ThreadPool& pool, const core::MergePlan& plan,
                        merge::MergeStats* stats) {
  ScopedSpan span(log_, sn::kMerge, ctx_);
  return inner_->merge(pool, plan, stats);
}

std::string TracedApp::canonical_output() const {
  ScopedSpan span(log_, sn::kSerialize, ctx_);
  return inner_->canonical_output();
}

cluster::AppFactory traced_factory(cluster::AppFactory inner, SpanLog& log,
                                   SpanContext ctx,
                                   std::atomic<int>* node_ids) {
  return [inner = std::move(inner), &log, ctx,
          node_ids]() -> std::unique_ptr<core::Application> {
    std::unique_ptr<core::Application> app = inner();
    if (app == nullptr) return nullptr;
    return std::make_unique<TracedApp>(std::move(app), log, ctx, node_ids);
  };
}

StatusOr<graph::JobGraph> traced_graph(const graph::JobGraph& graph,
                                       SpanLog& log, int job) {
  graph::JobGraph out;
  for (std::size_t i = 0; i < graph.num_stages(); ++i) {
    const graph::JobGraph::Stage& stage = graph.stage(i);
    out.add_stage(traced_factory(stage.make_app, log,
                                 {job, static_cast<int>(i), -1}),
                  stage.options);
    if (stage.source != nullptr) {
      SUPMR_RETURN_IF_ERROR(out.set_source(i, stage.source));
    }
  }
  // Edges in each consumer's input order: a stage's input is its upstream
  // payloads concatenated in that order.
  for (std::size_t to = 0; to < graph.num_stages(); ++to) {
    for (std::size_t from : graph.stage(to).inputs) {
      SUPMR_RETURN_IF_ERROR(out.add_edge(from, to));
    }
  }
  return out;
}

graph::StageRunner traced_stage_runner(SpanLog& log, int job) {
  return [&log, job](std::size_t stage, core::Application& app,
                     const ingest::IngestSource& source,
                     const core::JobConfig& cfg) -> StatusOr<core::JobResult> {
    const SpanContext ctx{job, static_cast<int>(stage), -1};
    ScopedSpan span(log, sn::kStage, ctx);
    TracedSource traced(source, log, ctx);
    core::MapReduceJob mr(app, traced, cfg);
    return mr.run(cfg.mode);
  };
}

}  // namespace supmr::perfbench
