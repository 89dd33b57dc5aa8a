#include "ref/conformance.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <functional>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "apps/chains.hpp"
#include "apps/doc_term_count.hpp"
#include "apps/external_word_count.hpp"
#include "apps/grep.hpp"
#include "apps/histogram.hpp"
#include "apps/inverted_index.hpp"
#include "apps/pair_count.hpp"
#include "apps/tera_sort.hpp"
#include "apps/word_count.hpp"
#include "cluster/cluster_job.hpp"
#include "fault/fault_plan.hpp"
#include "fault/retrying_device.hpp"
#include "graph/job_graph.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "ref/ref_graph.hpp"
#include "ref/ref_job.hpp"
#include "runtime/job_manager.hpp"
#include "storage/fault_device.hpp"
#include "storage/mem_device.hpp"
#include "wload/numeric.hpp"
#include "wload/teragen.hpp"
#include "wload/text_corpus.hpp"

namespace supmr::ref {
namespace {

// The SUT app for the cell; `for_ref` builds the oracle twin instead. The
// twin is deliberately the boring variant: no map-time partitioning for
// sort, and the in-memory (non-spilling) container for xwordcount — the
// reference is "no-pipeline, no-spill" by definition.
StatusOr<std::unique_ptr<core::Application>> make_app(
    const core::ReplaySpec& spec, bool for_ref) {
  if (spec.app == "wordcount" || (for_ref && spec.app == "xwordcount")) {
    return std::unique_ptr<core::Application>(new apps::WordCountApp());
  }
  if (spec.app == "xwordcount") {
    containers::SpillingHashContainer::Options opt;
    opt.memory_budget_bytes =
        spec.memory_budget > 0 ? spec.memory_budget : 32 * 1024;
    return std::unique_ptr<core::Application>(
        new apps::ExternalWordCountApp(opt));
  }
  if (spec.app == "sort") {
    apps::TeraSortOptions opt;
    opt.key_bytes = static_cast<std::uint32_t>(spec.key_bytes);
    opt.record_bytes = static_cast<std::uint32_t>(spec.record_bytes);
    opt.partitions = for_ref ? 0 : spec.app_partitions;
    return std::unique_ptr<core::Application>(new apps::TeraSortApp(opt));
  }
  if (spec.app == "grep") {
    return std::unique_ptr<core::Application>(
        new apps::GrepApp(apps::split_patterns(spec.grep_patterns)));
  }
  if (spec.app == "histogram") {
    apps::HistogramOptions opt;
    opt.lo = spec.hist_lo;
    opt.hi = spec.hist_hi;
    opt.bins = spec.hist_bins;
    return std::unique_ptr<core::Application>(new apps::HistogramApp(opt));
  }
  if (spec.app == "index") {
    return std::unique_ptr<core::Application>(new apps::InvertedIndexApp());
  }
  if (spec.app == "paircount") {
    return std::unique_ptr<core::Application>(new apps::PairCountApp());
  }
  if (spec.app == "doctermcount") {
    return std::unique_ptr<core::Application>(new apps::DocTermCountApp());
  }
  return Status::InvalidArgument("conformance: unknown app " + spec.app);
}

// Apps that require intra-file chunking (MultiFileSource): file identity
// must survive chunk coalescing.
bool needs_multi_text(const core::ReplaySpec& spec) {
  return spec.app == "index" || spec.app == "doctermcount";
}

std::shared_ptr<const ingest::RecordFormat> make_format(
    const core::ReplaySpec& spec) {
  if (spec.app == "sort") return std::make_shared<ingest::CrlfFormat>();
  return std::make_shared<ingest::LineFormat>();
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
  return Status::InvalidArgument("conformance: unknown corpus kind " + c.kind);
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

// Graph (chained-app) cells: build the spec's JobGraph twice from the same
// corpus devices — once for the executor (each stage funneled through
// `run_sut`, so managed cells lease every stage), once for the sequential
// oracle — and byte-compare the sink outputs.
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
  if (spec.container != core::ContainerMode::kDefault) {
    return Status::InvalidArgument(
        "conformance: graph cells run each stage's default container");
  }

  apps::ChainInputs inputs;
  if (spec.app == "tfidf") {
    if (spec.corpus.kind != "multi-text") {
      return Status::InvalidArgument(
          "conformance: tfidf cells need corpus kind multi-text");
    }
    if (corpus_override != nullptr) {
      return Status::InvalidArgument(
          "conformance: corpus overrides need a single-device graph app");
    }
    wload::TextCorpusConfig tcfg;
    tcfg.seed = spec.corpus.seed;
    const std::uint64_t per_file = std::max<std::uint64_t>(
        1, spec.corpus.bytes /
               std::max<std::uint64_t>(1, spec.corpus.num_files));
    inputs.files = wload::generate_text_files(
        tcfg, static_cast<std::size_t>(spec.corpus.num_files), per_file);
  } else {
    std::string data;
    if (corpus_override != nullptr) {
      data = *corpus_override;
    } else {
      SUPMR_ASSIGN_OR_RETURN(data, make_corpus(spec));
    }
    inputs.device = std::make_shared<storage::MemDevice>(
        std::move(data), "conformance-input");
  }

  SUPMR_ASSIGN_OR_RETURN(graph::JobGraph sut_graph,
                         apps::make_chain(spec, inputs));
  // The oracle twin: the same chain, but the boring sort variant (no
  // map-time partitioning) — the graph analog of make_app(for_ref).
  core::ReplaySpec ref_spec = spec;
  ref_spec.app_partitions = 0;
  SUPMR_ASSIGN_OR_RETURN(graph::JobGraph oracle_graph,
                         apps::make_chain(ref_spec, inputs));

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
  outcome.sut_canonical = std::move(sut.final_output);
  outcome.ref_canonical = std::move(oracle.canonical);
  outcome.match = outcome.sut_canonical == outcome.ref_canonical;
  outcome.diff = outcome.match ? "identical"
                               : diff_summary(outcome.sut_canonical,
                                              outcome.ref_canonical);
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
        "conformance: cluster cells do not take fault plans (node slices are "
        "private in-memory devices)");
  }
  if (needs_multi_text(spec) || spec.corpus.kind == "multi-text") {
    return Status::InvalidArgument(
        "conformance: cluster cells need a single-device app");
  }

  core::JobConfig cfg;
  cfg.mode = spec.mode;
  cfg.merge_mode = spec.merge_mode;
  cfg.num_map_threads = spec.threads;
  cfg.num_reduce_threads = spec.threads;
  cfg.num_merge_partitions = spec.merge_partitions;
  cfg.io = spec.io;
  cfg.container = spec.container;
  cfg.num_nodes = static_cast<std::size_t>(spec.cluster_nodes);
  cfg.node_link_bps = static_cast<double>(spec.cluster_link_bps);
  cfg.uplink_bps = static_cast<double>(spec.cluster_uplink_bps);
  cfg.node_disk_bps = static_cast<double>(spec.cluster_disk_bps);
  cfg.node_memory_budget = static_cast<std::size_t>(spec.cluster_budget);

  std::string data;
  if (corpus_override != nullptr) {
    data = *corpus_override;
  } else {
    SUPMR_ASSIGN_OR_RETURN(data, make_corpus(spec));
  }

  cluster::ClusterJob job;
  job.input = std::move(data);
  job.format = make_format(spec);
  job.make_app = [&spec]() -> std::unique_ptr<core::Application> {
    auto app = make_app(spec, /*for_ref=*/false);
    return app.ok() ? std::move(app).value() : nullptr;
  };
  job.config = cfg;
  job.chunk_bytes = spec.chunk_bytes;
  if (spec.app == "sort") job.record_bytes = spec.record_bytes;
  if (cfg.node_memory_budget > 0) {
    job.spill_dir = "/tmp/supmr_cluster_" + std::to_string(::getpid());
    ::mkdir(job.spill_dir.c_str(), 0777);  // best effort; the sorter reports
  }

  SUPMR_ASSIGN_OR_RETURN(cluster::ClusterResult sut, cluster::run_cluster(job));

  SUPMR_ASSIGN_OR_RETURN(auto ref_app, make_app(spec, /*for_ref=*/true));
  auto ref_dev =
      std::make_shared<storage::MemDevice>(job.input, "conformance-ref");
  ingest::SingleDeviceSource ref_source(ref_dev, make_format(spec), 0);
  SUPMR_ASSIGN_OR_RETURN(RefResult ref, run_ref(*ref_app, ref_source));

  ConformanceOutcome outcome;
  if (!sut.nodes.empty()) outcome.job = sut.nodes.front().job;
  outcome.cluster_nodes = sut.nodes.size();
  outcome.cluster_shuffle_bytes = sut.shuffle_bytes;
  outcome.cluster_local_bytes = sut.local_bytes;
  outcome.cluster_map_output_bytes = sut.map_output_bytes;
  outcome.cluster_recv_min_bytes = ~std::uint64_t{0};
  for (const cluster::NodeStats& node : sut.nodes) {
    outcome.cluster_spill_runs += node.spill_runs;
    const std::uint64_t owned = node.recv_bytes + node.local_bytes;
    outcome.cluster_recv_max_bytes =
        std::max(outcome.cluster_recv_max_bytes, owned);
    outcome.cluster_recv_min_bytes =
        std::min(outcome.cluster_recv_min_bytes, owned);
  }
  outcome.sut_canonical = std::move(sut.output);
  outcome.ref_canonical = std::move(ref.canonical);
  outcome.match = outcome.sut_canonical == outcome.ref_canonical;
  outcome.diff = outcome.match ? "identical"
                               : diff_summary(outcome.sut_canonical,
                                              outcome.ref_canonical);
  return outcome;
}

StatusOr<ConformanceOutcome> run_cell_impl(const core::ReplaySpec& spec,
                                           const std::string* corpus_override,
                                           const RunSut& run_sut) {
  if (spec.is_graph()) return run_graph_cell(spec, corpus_override, run_sut);
  if (spec.is_cluster()) return run_cluster_cell(spec, corpus_override);
  const bool multi = spec.corpus.kind == "multi-text";
  if (needs_multi_text(spec) && !multi) {
    return Status::InvalidArgument("conformance: " + spec.app +
                                   " cells need corpus kind multi-text");
  }
  if (multi && (!needs_multi_text(spec) || corpus_override != nullptr)) {
    return Status::InvalidArgument(
        "conformance: multi-text corpus only supports multi-file apps "
        "(index, doctermcount) without a corpus override");
  }
  if (multi && spec.mode == core::ExecMode::kAdaptive) {
    return Status::InvalidArgument(
        "conformance: adaptive mode needs a single-device source");
  }
  if (spec.degrade &&
      (multi || spec.mode != core::ExecMode::kIngestMR)) {
    return Status::InvalidArgument(
        "conformance: degrade cells run in supmr mode on a single device "
        "(the surviving-range oracle needs the planned chunk extents)");
  }

  std::optional<fault::FaultPlan> plan;
  if (!spec.fault_plan.empty()) {
    SUPMR_ASSIGN_OR_RETURN(plan, fault::FaultPlan::parse(spec.fault_plan));
  }

  core::JobConfig cfg;
  cfg.mode = spec.mode;
  cfg.merge_mode = spec.merge_mode;
  cfg.num_map_threads = spec.threads;
  cfg.num_reduce_threads = spec.threads;
  cfg.num_merge_partitions = spec.merge_partitions;
  cfg.recovery.policy.max_attempts =
      static_cast<std::uint32_t>(spec.retry_attempts);
  // Keep retried cells fast: the lattice runs hundreds of cells, and real
  // backoff curves are the fault suite's concern, not conformance's.
  cfg.recovery.policy.backoff_base_s = 1e-4;
  cfg.recovery.policy.backoff_max_s = 1e-3;
  cfg.recovery.degrade = spec.degrade;
  cfg.io = spec.io;
  cfg.container = spec.container;

  SUPMR_ASSIGN_OR_RETURN(auto sut_app, make_app(spec, /*for_ref=*/false));
  SUPMR_ASSIGN_OR_RETURN(auto ref_app, make_app(spec, /*for_ref=*/true));
  // The container axis applies to the SUT only: the oracle twin always runs
  // each app's default container, so a combining cell is a true differential
  // (an app without a combiner rejects here instead of falling back).
  SUPMR_RETURN_IF_ERROR(sut_app->use_container(spec.container));

  ConformanceOutcome outcome;
  RefResult ref;
  if (multi) {
    wload::TextCorpusConfig tcfg;
    tcfg.seed = spec.corpus.seed;
    const std::uint64_t per_file =
        std::max<std::uint64_t>(1, spec.corpus.bytes /
                                       std::max<std::uint64_t>(
                                           1, spec.corpus.num_files));
    auto files = wload::generate_text_files(
        tcfg, static_cast<std::size_t>(spec.corpus.num_files), per_file);
    ingest::MultiFileSource source(files,
                                   static_cast<std::size_t>(
                                       spec.files_per_chunk),
                                   spec.io);
    SUPMR_ASSIGN_OR_RETURN(outcome.job, run_sut(*sut_app, source, cfg));

    ingest::MultiFileSource ref_source(files, 0);  // all files, one round
    SUPMR_ASSIGN_OR_RETURN(ref, run_ref(*ref_app, ref_source));
  } else {
    std::string data;
    if (corpus_override != nullptr) {
      data = *corpus_override;
    } else {
      SUPMR_ASSIGN_OR_RETURN(data, make_corpus(spec));
    }
    auto format = make_format(spec);
    std::shared_ptr<const storage::Device> dev =
        std::make_shared<storage::MemDevice>(data, "conformance-input");
    if (plan) dev = std::make_shared<storage::FaultDevice>(dev, *plan);
    if (cfg.recovery.policy.enabled()) {
      dev = std::make_shared<fault::RetryingDevice>(dev, cfg.recovery.policy);
    }
    // MemDevice lends views, so io=mmap cells exercise the genuinely
    // zero-copy path (borrowed spans all the way into map tasks) even
    // though the corpus is in-memory; fault/retry wrappers stacked above
    // refuse views and force the per-chunk copying fallback.
    ingest::SingleDeviceSource source(dev, format, spec.chunk_bytes, spec.io);
    SUPMR_ASSIGN_OR_RETURN(outcome.job, run_sut(*sut_app, source, cfg));

    // The oracle's input: the full corpus, or — for a degraded run — the
    // concatenation of the chunk extents the run did not skip.
    std::string ref_data;
    if (outcome.job.chunks_skipped > 0) {
      auto clean =
          std::make_shared<storage::MemDevice>(data, "conformance-oracle");
      ingest::SingleDeviceSource planner(clean, format, spec.chunk_bytes);
      SUPMR_ASSIGN_OR_RETURN(auto extents, planner.plan());
      std::set<std::uint64_t> skipped;
      for (const auto& timing : outcome.job.pipeline.chunks) {
        if (timing.skipped) skipped.insert(timing.index);
      }
      for (const auto& extent : extents) {
        if (skipped.count(extent.index) == 0) {
          ref_data.append(data, extent.offset, extent.length);
        }
      }
    } else {
      ref_data = data;
    }
    auto ref_dev =
        std::make_shared<storage::MemDevice>(ref_data, "conformance-ref");
    ingest::SingleDeviceSource ref_source(ref_dev, format, 0);
    SUPMR_ASSIGN_OR_RETURN(ref, run_ref(*ref_app, ref_source));
  }

  outcome.sut_canonical = sut_app->canonical_output();
  outcome.ref_canonical = std::move(ref.canonical);
  outcome.match = outcome.sut_canonical == outcome.ref_canonical;
  if (!outcome.match) {
    outcome.diff = diff_summary(outcome.sut_canonical, outcome.ref_canonical);
  } else {
    outcome.diff = "identical";
  }
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
