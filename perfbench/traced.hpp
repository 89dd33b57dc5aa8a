// Forwarding wrappers that record a span around every call the runtime makes
// into a layer's public interface. They change no behaviour: each call goes
// to the wrapped object unchanged, so a traced job produces the same bytes
// as an untraced one.
#pragma once

#include <atomic>
#include <memory>

#include "cluster/cluster_job.hpp"
#include "core/application.hpp"
#include "graph/job_graph.hpp"
#include "ingest/source.hpp"
#include "spans.hpp"

namespace supmr::perfbench {

// ingest layer: plan() and read_chunk().
class TracedSource final : public ingest::IngestSource {
 public:
  TracedSource(const ingest::IngestSource& inner, SpanLog& log,
               SpanContext ctx)
      : inner_(inner), log_(log), ctx_(ctx) {}

  StatusOr<std::vector<ingest::ChunkExtent>> plan() const override;
  Status read_chunk(const ingest::ChunkExtent& extent,
                    ingest::IngestChunk& out) const override;
  std::uint64_t total_bytes() const override { return inner_.total_bytes(); }
  storage::DeviceModel model() const override { return inner_.model(); }

 private:
  const ingest::IngestSource& inner_;
  SpanLog& log_;
  const SpanContext ctx_;
};

// apps / containers / merge layers: every Application callback. Works for
// the `final` apps because it composes instead of deriving from them.
class TracedApp final : public core::Application {
 public:
  // With a non-null `node_ids`, init() takes the next cluster node id from
  // it: nodes call their factory concurrently, and the apps that are only
  // probed for their shard kind never reach init().
  TracedApp(std::unique_ptr<core::Application> inner, SpanLog& log,
            SpanContext ctx, std::atomic<int>* node_ids = nullptr)
      : inner_(std::move(inner)), log_(log), ctx_(ctx), node_ids_(node_ids) {}

  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override {
    return inner_->round_tasks();
  }
  void map_task(std::size_t task, std::size_t thread_id) override;
  Status reduce(ThreadPool& pool, std::size_t num_partitions) override;
  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               merge::MergeStats* stats) override;
  std::uint64_t result_count() const override {
    return inner_->result_count();
  }
  core::CombinerKind combiner_kind() const override {
    return inner_->combiner_kind();
  }
  core::ShardKind shard_kind() const override {
    return inner_->shard_kind();
  }
  Status use_container(core::ContainerMode mode) override {
    return inner_->use_container(mode);
  }
  core::CombineStats combine_stats() const override {
    return inner_->combine_stats();
  }
  std::string canonical_output() const override;

 private:
  std::unique_ptr<core::Application> inner_;
  SpanLog& log_;
  SpanContext ctx_;
  std::atomic<int>* node_ids_ = nullptr;
  // Written by prepare_round on the coordinator; read by the round's map
  // tasks, which the thread pool starts after prepare_round returns.
  int round_ = -1;
};

// A factory whose apps are TracedApps with `ctx`. Both graph::AppFactory and
// cluster::AppFactory have this signature. With `node_ids`, see TracedApp.
cluster::AppFactory traced_factory(cluster::AppFactory inner, SpanLog& log,
                                   SpanContext ctx,
                                   std::atomic<int>* node_ids = nullptr);

// A copy of `graph` whose stage factories build TracedApps stamped with
// their stage index. Wrapping the factory rather than the app a StageRunner
// receives is what makes canonical_output() visible: run_graph calls it on
// its own app pointer after the runner returns.
StatusOr<graph::JobGraph> traced_graph(const graph::JobGraph& graph,
                                       SpanLog& log, int job);

// A StageRunner that records one graph.stage span per stage and runs it
// inline over a TracedSource, like run_graph's default runner.
graph::StageRunner traced_stage_runner(SpanLog& log, int job);

}  // namespace supmr::perfbench
