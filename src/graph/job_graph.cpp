#include "graph/job_graph.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <utility>

#include "obs/macros.hpp"
#include "storage/file_device.hpp"
#include "storage/mem_device.hpp"
#include "storage/rate_limiter.hpp"
#include "storage/spill_file.hpp"
#include "storage/throttled_device.hpp"

namespace supmr::graph {

std::size_t JobGraph::add_stage(AppFactory make_app, StageOptions options) {
  Stage stage;
  stage.make_app = std::move(make_app);
  stage.options = std::move(options);
  stages_.push_back(std::move(stage));
  return stages_.size() - 1;
}

Status JobGraph::set_source(
    std::size_t stage, std::shared_ptr<const ingest::IngestSource> source) {
  if (stage >= stages_.size())
    return Status::InvalidArgument("graph: set_source on unknown stage");
  if (source == nullptr)
    return Status::InvalidArgument("graph: null source");
  stages_[stage].source = std::move(source);
  return Status::Ok();
}

Status JobGraph::add_edge(std::size_t from, std::size_t to) {
  if (from >= stages_.size() || to >= stages_.size())
    return Status::InvalidArgument("graph: edge references unknown stage");
  if (from == to) return Status::InvalidArgument("graph: self-edge");
  stages_[from].outputs.push_back(to);
  stages_[to].inputs.push_back(from);
  return Status::Ok();
}

StatusOr<std::vector<std::size_t>> JobGraph::topo_order() const {
  if (stages_.empty()) return Status::InvalidArgument("graph: no stages");
  std::size_t sinks = 0;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const Stage& s = stages_[i];
    const std::string& name =
        s.options.name.empty() ? "#" + std::to_string(i) : s.options.name;
    if (s.inputs.empty() && s.source == nullptr)
      return Status::InvalidArgument("graph: root stage " + name +
                                     " has no source");
    if (!s.inputs.empty() && s.source != nullptr)
      return Status::InvalidArgument("graph: stage " + name +
                                     " has both a source and in-edges");
    if (!s.inputs.empty() && s.options.format == nullptr)
      return Status::InvalidArgument("graph: stage " + name +
                                     " needs an input format");
    if (!s.make_app)
      return Status::InvalidArgument("graph: stage " + name +
                                     " has no app factory");
    if (s.outputs.empty()) ++sinks;
  }
  if (sinks != 1)
    return Status::InvalidArgument(
        "graph: want exactly one sink stage, have " + std::to_string(sinks));

  // Kahn's algorithm; any leftover stage sits on a cycle.
  std::vector<std::size_t> indegree(stages_.size());
  for (std::size_t i = 0; i < stages_.size(); ++i)
    indegree[i] = stages_[i].inputs.size();
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < stages_.size(); ++i)
    if (indegree[i] == 0) ready.push_back(i);
  std::vector<std::size_t> order;
  order.reserve(stages_.size());
  while (!ready.empty()) {
    const std::size_t i = ready.front();
    ready.pop_front();
    order.push_back(i);
    for (std::size_t out : stages_[i].outputs)
      if (--indegree[out] == 0) ready.push_back(out);
  }
  if (order.size() != stages_.size())
    return Status::InvalidArgument("graph: cycle detected");
  return order;
}

StatusOr<std::size_t> JobGraph::sink() const {
  for (std::size_t i = 0; i < stages_.size(); ++i)
    if (stages_[i].outputs.empty()) return i;
  return Status::InvalidArgument("graph: no sink stage");
}

namespace {

// Writes `payload` to a spill file under `dir` and opens it as a
// FileDevice. The path is unlinked right after open, so the bytes live only
// as long as the returned device's descriptor. A non-null `limiter` charges
// the write here and the re-ingest reads via a ThrottledDevice wrapper.
StatusOr<std::shared_ptr<const storage::Device>> spill_to_file(
    const std::string& payload, const std::string& dir,
    const std::shared_ptr<storage::RateLimiter>& limiter) {
  SUPMR_ASSIGN_OR_RETURN(
      const std::string path,
      storage::write_spill_file(
          dir.empty() ? std::string("/tmp") : dir, "supmr-graph-spill",
          [&](std::FILE* f) {
            if (limiter != nullptr) limiter->acquire(payload.size());
            return std::fwrite(payload.data(), 1, payload.size(), f) ==
                   payload.size();
          }));
  auto device = storage::FileDevice::open(path);
  ::unlink(path.c_str());
  SUPMR_RETURN_IF_ERROR(device.status());
  std::shared_ptr<const storage::Device> dev(std::move(*device));
  if (limiter != nullptr) {
    dev = std::make_shared<storage::ThrottledDevice>(std::move(dev), limiter);
  }
  return dev;
}

StatusOr<core::JobResult> run_inline(std::size_t, core::Application& app,
                                     const ingest::IngestSource& source,
                                     const core::JobConfig& cfg) {
  core::MapReduceJob job(app, source, cfg);
  return job.run(cfg.mode);
}

}  // namespace

StatusOr<GraphResult> run_graph(const JobGraph& graph,
                                const GraphOptions& options,
                                const StageRunner& runner) {
  SUPMR_ASSIGN_OR_RETURN(std::vector<std::size_t> order, graph.topo_order());
  const StageRunner& run_stage =
      runner ? runner : StageRunner(run_inline);

  GraphResult result;
  result.stages.reserve(order.size());
  // One limiter for every spill in the run: the emulated device is a single
  // channel, so concurrent spilled edges would contend for it like real
  // files on one disk.
  std::shared_ptr<storage::RateLimiter> spill_limiter;
  if (options.spill_bps > 0) {
    spill_limiter = std::make_shared<storage::RateLimiter>(options.spill_bps);
  }
  // Canonical outputs kept only while a downstream stage still needs them.
  std::vector<std::string> payloads(graph.num_stages());
  std::vector<std::size_t> pending_consumers(graph.num_stages());
  for (std::size_t i = 0; i < graph.num_stages(); ++i)
    pending_consumers[i] = graph.stage(i).outputs.size();

  for (std::size_t idx : order) {
    const JobGraph::Stage& stage = graph.stage(idx);
    std::unique_ptr<core::Application> app = stage.make_app();
    if (app == nullptr)
      return Status::Internal("graph: app factory returned null");

    StatusOr<core::JobResult> job = Status::Internal("graph: stage not run");
    if (stage.source != nullptr) {
      job = run_stage(idx, *app, *stage.source, stage.options.config);
    } else {
      // Assemble this stage's input from its upstream payloads, edge order.
      std::string input;
      for (std::size_t up : stage.inputs) input += payloads[up];
      for (std::size_t up : stage.inputs) {
        if (--pending_consumers[up] == 0) {
          payloads[up].clear();
          payloads[up].shrink_to_fit();
        }
      }
      const bool spill =
          options.handoff == core::GraphHandoff::kFile ||
          (options.memory_budget > 0 && input.size() > options.memory_budget);
      std::shared_ptr<const storage::Device> dev;
      if (spill) {
        result.spill_bytes += input.size();
        ++result.spill_files;
        SUPMR_COUNTER_ADD("graph.spill_bytes", input.size());
        SUPMR_COUNTER_ADD("graph.spill_files", 1);
        SUPMR_ASSIGN_OR_RETURN(
            dev, spill_to_file(input, options.spill_dir, spill_limiter));
        input.clear();
        input.shrink_to_fit();
      } else {
        result.handoff_bytes += input.size();
        SUPMR_COUNTER_ADD("graph.handoff_bytes", input.size());
        dev = std::make_shared<storage::MemDevice>(
            std::move(input), "graph-edge:" + stage.options.name);
      }
      ingest::SingleDeviceSource source(dev, stage.options.format,
                                        stage.options.chunk_bytes,
                                        stage.options.io);
      job = run_stage(idx, *app, source, stage.options.config);
    }
    SUPMR_RETURN_IF_ERROR(job.status());
    SUPMR_COUNTER_ADD("graph.stages_run", 1);

    StageResult sr;
    sr.name = stage.options.name.empty() ? "#" + std::to_string(idx)
                                         : stage.options.name;
    sr.job = std::move(*job);
    payloads[idx] = app->canonical_output();
    sr.output_bytes = payloads[idx].size();
    result.stages.push_back(std::move(sr));
    if (stage.outputs.empty()) {
      result.final_output = std::move(payloads[idx]);
      payloads[idx].clear();
    }
  }
  return result;
}

}  // namespace supmr::graph
