#include "ref/conformance.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <functional>
#include <set>
#include <string_view>

#include "apps/chains.hpp"
#include "cluster/cluster_job.hpp"
#include "graph/job_graph.hpp"
#include "ref/ref_graph.hpp"
#include "ref/ref_job.hpp"
#include "runtime/job_manager.hpp"
#include "storage/mem_device.hpp"
#include "wload/numeric.hpp"
#include "wload/teragen.hpp"
#include "wload/text_corpus.hpp"

namespace supmr::ref {
namespace {

// The oracle twin of a cell: the boring variant of each app — wordcount for
// the budgeted xwordcount. The reference is "no pipeline, no spill" by
// definition. Single-round, cluster and graph cells all compare against it.
core::ReplaySpec oracle_spec(const core::ReplaySpec& spec) {
  core::ReplaySpec ref = spec;
  if (ref.app == "xwordcount") ref.app = "wordcount";
  return ref;
}

std::string printable(std::string_view bytes) {
  std::string out;
  for (char c : bytes) {
    if (std::isprint(static_cast<unsigned char>(c))) {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x",
                    static_cast<unsigned char>(c));
      out += buf;
    }
  }
  return out;
}

}  // namespace

StatusOr<std::string> make_corpus(const core::ReplaySpec& spec) {
  const core::CorpusSpec& c = spec.corpus;
  if (c.kind == "text") {
    wload::TextCorpusConfig cfg;
    cfg.total_bytes = c.bytes;
    cfg.seed = c.seed;
    return wload::generate_text(cfg);
  }
  if (c.kind == "terasort") {
    wload::TeraGenConfig cfg;
    cfg.key_bytes = static_cast<std::uint32_t>(spec.key_bytes);
    cfg.record_bytes = static_cast<std::uint32_t>(spec.record_bytes);
    cfg.num_records = cfg.record_bytes ? c.bytes / cfg.record_bytes : 0;
    cfg.seed = c.seed;
    return wload::teragen_to_string(cfg);
  }
  if (c.kind == "numeric") {
    wload::NumericConfig cfg;
    cfg.num_values = c.bytes / 4;
    cfg.lo = spec.hist_lo;
    cfg.hi = spec.hist_hi > spec.hist_lo ? spec.hist_hi - 1 : spec.hist_lo;
    cfg.seed = c.seed;
    return wload::generate_numeric(cfg);
  }
  return Status::InvalidArgument(
      "conformance: no single-device corpus of kind " + c.kind);
}

std::string diff_summary(const std::string& sut, const std::string& ref) {
  if (sut == ref) return "identical";
  const std::size_t n = std::min(sut.size(), ref.size());
  std::size_t i = 0;
  while (i < n && sut[i] == ref[i]) ++i;
  const std::size_t from = i >= 16 ? i - 16 : 0;
  const std::size_t len = 32;
  std::string out = "outputs differ at byte " + std::to_string(i) + " (sut " +
                    std::to_string(sut.size()) + " bytes, ref " +
                    std::to_string(ref.size()) + " bytes); sut[" +
                    std::to_string(from) + "..]=\"" +
                    printable(std::string_view(sut).substr(from, len)) +
                    "\" ref[" + std::to_string(from) + "..]=\"" +
                    printable(std::string_view(ref).substr(from, len)) + "\"";
  return out;
}

namespace {

// How run_cell_impl executes the SUT job: inline (run_cell) or through a
// JobManager (run_cell_managed). The oracle side never goes through this.
using RunSut = std::function<StatusOr<core::JobResult>(
    core::Application&, const ingest::IngestSource&, const core::JobConfig&)>;

// The cell's single-device corpus: the override, or the seeded corpus.
StatusOr<std::string> corpus_bytes(const core::ReplaySpec& spec,
                                   const std::string* corpus_override) {
  if (corpus_override != nullptr) return *corpus_override;
  return make_corpus(spec);
}

// The cell's corpus as builder inputs: the seeded multi-text files, or one
// in-memory device. MemDevice lends views, so io=mmap cells exercise the
// genuinely zero-copy path (borrowed spans all the way into map tasks).
StatusOr<apps::ChainInputs> make_inputs(const core::ReplaySpec& spec,
                                        const std::string* corpus_override) {
  apps::ChainInputs inputs;
  if (spec.corpus.kind != "multi-text") {
    SUPMR_ASSIGN_OR_RETURN(std::string data,
                           corpus_bytes(spec, corpus_override));
    inputs.device = std::make_shared<storage::MemDevice>(std::move(data),
                                                         "conformance-input");
    return inputs;
  }
  if (corpus_override != nullptr) {
    return Status::InvalidArgument(
        "conformance: corpus overrides need a single-device corpus");
  }
  wload::TextCorpusConfig tcfg;
  tcfg.seed = spec.corpus.seed;
  const std::uint64_t per_file = std::max<std::uint64_t>(
      1, spec.corpus.bytes / std::max<std::uint64_t>(1, spec.corpus.num_files));
  inputs.files = wload::generate_text_files(
      tcfg, static_cast<std::size_t>(spec.corpus.num_files), per_file);
  return inputs;
}

// The sequential oracle: the cell's oracle twin over `inputs`, read as one
// round.
StatusOr<RefResult> run_oracle(const core::ReplaySpec& spec,
                               const apps::ChainInputs& inputs) {
  core::ReplaySpec ref = oracle_spec(spec);
  ref.chunk_bytes = 0;
  ref.files_per_chunk = 0;
  ref.io = core::IoMode::kRead;
  SUPMR_ASSIGN_OR_RETURN(auto app, apps::make_app(ref));
  SUPMR_ASSIGN_OR_RETURN(auto source, apps::make_source(ref, inputs));
  return run_ref(*app, *source);
}

// A degraded run's oracle input: the corpus without the chunks the run
// skipped. Plans are deterministic in the input bytes and chunk size, so
// planning the clean corpus again yields the run's extents; chunk
// boundaries sit on record boundaries, so the splice is well-formed.
StatusOr<std::shared_ptr<const storage::Device>> surviving_input(
    const core::ReplaySpec& spec, const apps::ChainInputs& clean,
    const core::JobResult& job) {
  SUPMR_ASSIGN_OR_RETURN(auto planner, apps::make_source(spec, clean));
  SUPMR_ASSIGN_OR_RETURN(auto extents, planner->plan());
  std::set<std::uint64_t> skipped;
  for (const auto& timing : job.pipeline.chunks) {
    if (timing.skipped) skipped.insert(timing.index);
  }
  std::string kept;
  ingest::IngestChunk chunk;
  for (const auto& extent : extents) {
    if (skipped.count(extent.index) != 0) continue;
    SUPMR_RETURN_IF_ERROR(planner->read_chunk(extent, chunk));
    kept.append(chunk.bytes().data(), chunk.bytes().size());
  }
  std::shared_ptr<const storage::Device> device =
      std::make_shared<storage::MemDevice>(std::move(kept), "conformance-ref");
  return device;
}

// Records both canonical outputs and the verdict.
void compare(std::string sut, std::string ref, ConformanceOutcome& outcome) {
  outcome.match = sut == ref;
  outcome.diff = diff_summary(sut, ref);
  outcome.sut_canonical = std::move(sut);
  outcome.ref_canonical = std::move(ref);
}

// Graph (chained-app) cells: build the spec's JobGraph and its oracle
// twin's from the same corpus devices — the first for the executor (each
// stage funneled through `run_sut`, so managed cells lease every stage), the
// second for the sequential oracle — and byte-compare the sink outputs.
StatusOr<ConformanceOutcome> run_graph_cell(const core::ReplaySpec& spec,
                                            const std::string* corpus_override,
                                            const RunSut& run_sut) {
  if (!spec.fault_plan.empty() || spec.degrade) {
    return Status::InvalidArgument(
        "conformance: graph cells do not take fault plans (stage handoff "
        "devices are not faultable)");
  }
  if (spec.mode == core::ExecMode::kAdaptive) {
    return Status::InvalidArgument(
        "conformance: graph stages run without an adaptive controller");
  }

  SUPMR_ASSIGN_OR_RETURN(apps::ChainInputs inputs,
                         make_inputs(spec, corpus_override));
  SUPMR_ASSIGN_OR_RETURN(graph::JobGraph sut_graph,
                         apps::make_chain(spec, inputs));
  SUPMR_ASSIGN_OR_RETURN(graph::JobGraph oracle_graph,
                         apps::make_chain(oracle_spec(spec), inputs));

  graph::GraphOptions gopts;
  gopts.handoff = spec.graph_handoff;
  gopts.memory_budget = spec.graph_budget;
  SUPMR_ASSIGN_OR_RETURN(
      graph::GraphResult sut,
      graph::run_graph(sut_graph, gopts,
                       [&](std::size_t, core::Application& app,
                           const ingest::IngestSource& source,
                           const core::JobConfig& cfg) {
                         return run_sut(app, source, cfg);
                       }));
  SUPMR_ASSIGN_OR_RETURN(GraphRefResult oracle, ref::run_graph(oracle_graph));

  ConformanceOutcome outcome;
  if (!sut.stages.empty()) outcome.job = sut.stages.back().job;
  outcome.graph_stages = sut.stages.size();
  outcome.graph_handoff_bytes = sut.handoff_bytes;
  outcome.graph_spill_bytes = sut.spill_bytes;
  outcome.graph_spill_files = sut.spill_files;
  compare(std::move(sut.final_output), std::move(oracle.canonical), outcome);
  return outcome;
}

// Cluster cells: run the spec through the sharded-shuffle runtime
// (src/cluster/) and byte-compare the reassembled global output against the
// sequential oracle over the FULL corpus — the strongest form of the
// scale-out claim: N nodes, a real shuffle, identical bytes. The cluster
// owns its node runtimes, so `run_sut` does not apply here (run_cell_managed
// rejects cluster specs up front).
StatusOr<ConformanceOutcome> run_cluster_cell(
    const core::ReplaySpec& spec, const std::string* corpus_override) {
  if (!spec.fault_plan.empty() || spec.degrade) {
    return Status::InvalidArgument(
        "conformance: cluster cells do not take fault plans (nodes read "
        "borrowed views of the job's input, not a device a plan can fault)");
  }
  SUPMR_ASSIGN_OR_RETURN(std::string data,
                         corpus_bytes(spec, corpus_override));
  SUPMR_ASSIGN_OR_RETURN(cluster::ClusterJob job,
                         apps::make_cluster_job(spec, data));
  SUPMR_ASSIGN_OR_RETURN(cluster::ClusterResult sut, cluster::run_cluster(job));
  apps::ChainInputs inputs;
  inputs.device =
      std::make_shared<storage::MemDevice>(std::move(data), "conformance-ref");
  SUPMR_ASSIGN_OR_RETURN(RefResult ref, run_oracle(spec, inputs));

  ConformanceOutcome outcome;
  if (!sut.nodes.empty()) outcome.job = sut.nodes.front().job;
  outcome.cluster_nodes = sut.nodes.size();
  outcome.cluster_shuffle_bytes = sut.shuffle_bytes;
  outcome.cluster_local_bytes = sut.local_bytes;
  outcome.cluster_map_output_bytes = sut.map_output_bytes;
  outcome.cluster_slice_s = sut.slice_s;
  outcome.cluster_map_s = sut.map_s;
  outcome.cluster_route_s = sut.route_s;
  outcome.cluster_merge_s = sut.merge_s;
  outcome.cluster_recv_min_bytes = ~std::uint64_t{0};
  for (const cluster::NodeStats& node : sut.nodes) {
    const std::uint64_t owned = node.recv_bytes + node.local_bytes;
    outcome.cluster_recv_max_bytes =
        std::max(outcome.cluster_recv_max_bytes, owned);
    outcome.cluster_recv_min_bytes =
        std::min(outcome.cluster_recv_min_bytes, owned);
  }
  compare(std::move(sut.output), std::move(ref.canonical), outcome);
  return outcome;
}

StatusOr<ConformanceOutcome> run_cell_impl(const core::ReplaySpec& spec,
                                           const std::string* corpus_override,
                                           const RunSut& run_sut) {
  if (spec.is_graph()) return run_graph_cell(spec, corpus_override, run_sut);
  if (spec.is_cluster()) return run_cluster_cell(spec, corpus_override);
  if (spec.degrade && (spec.corpus.kind == "multi-text" ||
                       spec.mode != core::ExecMode::kIngestMR)) {
    return Status::InvalidArgument(
        "conformance: degrade cells run in supmr mode on a single device "
        "(the surviving-range oracle needs the planned chunk extents)");
  }

  SUPMR_ASSIGN_OR_RETURN(apps::ChainInputs inputs,
                         make_inputs(spec, corpus_override));
  // The fault plan and retry wrappers apply to the SUT only; they refuse
  // views, so io=mmap cells with a plan take the per-chunk copying fallback.
  // Retried cells back off fast: the lattice runs hundreds of cells, and
  // real backoff curves are the fault suite's concern, not conformance's.
  fault::RetryPolicy fast_backoff;
  fast_backoff.backoff_base_s = 1e-4;
  fast_backoff.backoff_max_s = 1e-3;
  apps::ChainInputs sut_inputs = inputs;
  if (inputs.device != nullptr) {
    SUPMR_ASSIGN_OR_RETURN(
        sut_inputs.device,
        apps::with_faults(inputs.device, spec, fast_backoff));
  }
  SUPMR_ASSIGN_OR_RETURN(auto app, apps::make_app(spec));
  SUPMR_ASSIGN_OR_RETURN(auto source, apps::make_source(spec, sut_inputs));
  ConformanceOutcome outcome;
  SUPMR_ASSIGN_OR_RETURN(outcome.job,
                         run_sut(*app, *source, spec.job_config()));

  if (outcome.job.chunks_skipped > 0) {
    SUPMR_ASSIGN_OR_RETURN(inputs.device,
                           surviving_input(spec, inputs, outcome.job));
  }
  SUPMR_ASSIGN_OR_RETURN(RefResult ref, run_oracle(spec, inputs));
  compare(app->canonical_output(), std::move(ref.canonical), outcome);
  return outcome;
}

}  // namespace

StatusOr<ConformanceOutcome> run_cell(const core::ReplaySpec& spec,
                                      const std::string* corpus_override) {
  return run_cell_impl(
      spec, corpus_override,
      [](core::Application& app, const ingest::IngestSource& source,
         const core::JobConfig& cfg) {
        core::MapReduceJob job(app, source, cfg);
        return job.run(cfg.mode);
      });
}

StatusOr<ConformanceOutcome> run_cell_managed(
    const core::ReplaySpec& spec, runtime::JobManager& manager,
    const ManagedCellOptions& opts, const std::string* corpus_override) {
  if (spec.is_cluster()) {
    return Status::InvalidArgument(
        "conformance: cluster cells run their own node runtimes and cannot "
        "go through a JobManager");
  }
  return run_cell_impl(
      spec, corpus_override,
      [&](core::Application& app, const ingest::IngestSource& source,
          const core::JobConfig& cfg) -> StatusOr<core::JobResult> {
        runtime::JobRequest request;
        request.app = &app;
        request.source = &source;
        request.config = cfg;
        request.priority = opts.priority;
        // threads=0 leases max(map, reduce) from cfg — i.e. spec.threads —
        // so the managed cell runs the exact lattice geometry.
        request.threads = opts.threads;
        request.memory_bytes = opts.memory_bytes;
        request.name = opts.name.empty() ? "cell-" + spec.app : opts.name;
        SUPMR_ASSIGN_OR_RETURN(runtime::JobHandle handle,
                               manager.submit(std::move(request)));
        return handle.wait();
      });
}

StatusOr<std::string> write_repro(const core::ReplaySpec& spec,
                                  const std::string& dir,
                                  const std::string& name) {
  std::string path = name + ".json";
  if (!dir.empty()) {
    ::mkdir(dir.c_str(), 0777);  // best effort; fopen below reports failure
    path = dir + "/" + path;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot create " + path);
  const std::string json = spec.to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) return Status::IoError("short write to " + path);
  return path;
}

}  // namespace supmr::ref
