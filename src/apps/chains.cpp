#include "apps/chains.hpp"

#include <utility>

#include "apps/doc_term_count.hpp"
#include "apps/grep.hpp"
#include "apps/histogram.hpp"
#include "apps/inverted_index.hpp"
#include "apps/pair_count.hpp"
#include "apps/pmi.hpp"
#include "apps/scatter.hpp"
#include "apps/tera_sort.hpp"
#include "apps/tfidf.hpp"
#include "apps/word_count.hpp"
#include "fault/fault_plan.hpp"
#include "fault/retrying_device.hpp"
#include "storage/fault_device.hpp"

namespace supmr::apps {
namespace {

// The apps whose file identity must survive chunk coalescing
// (MultiFileSource).
bool reads_files(const core::ReplaySpec& spec) {
  return spec.app == "index" || spec.app == "doctermcount" ||
         spec.app == "tfidf";
}

// sort and msort's TeraSort stage.
TeraSortOptions tera_sort_options(const core::ReplaySpec& spec) {
  TeraSortOptions opt;
  opt.key_bytes = static_cast<std::uint32_t>(spec.key_bytes);
  opt.record_bytes = static_cast<std::uint32_t>(spec.record_bytes);
  return opt;
}

graph::StageOptions stage(const core::ReplaySpec& spec, std::string name) {
  graph::StageOptions opts;
  opts.name = std::move(name);
  opts.config = spec.job_config();
  opts.format = record_format(spec);
  opts.chunk_bytes = spec.chunk_bytes;
  opts.io = spec.io;
  return opts;
}

}  // namespace

StatusOr<std::unique_ptr<core::Application>> make_app(
    const core::ReplaySpec& spec) {
  std::unique_ptr<core::Application> app;
  if (spec.app == "wordcount") {
    app = std::make_unique<WordCountApp>();
  } else if (spec.app == "xwordcount") {
    app = std::make_unique<WordCountApp>(
        spec.memory_budget > 0 ? spec.memory_budget : 32 * 1024,
        std::make_unique<containers::RunSet>("/tmp"));
  } else if (spec.app == "sort") {
    app = std::make_unique<TeraSortApp>(tera_sort_options(spec));
  } else if (spec.app == "grep") {
    app = std::make_unique<GrepApp>(split_patterns(spec.grep_patterns));
  } else if (spec.app == "histogram") {
    if (spec.hist_bins == 0) {
      return Status::InvalidArgument("histogram needs at least one bin");
    }
    if (spec.hist_hi <= spec.hist_lo) {
      return Status::InvalidArgument("histogram needs lo < hi");
    }
    HistogramOptions opt;
    opt.lo = spec.hist_lo;
    opt.hi = spec.hist_hi;
    opt.bins = spec.hist_bins;
    app = std::make_unique<HistogramApp>(opt);
  } else if (spec.app == "index") {
    app = std::make_unique<InvertedIndexApp>();
  } else if (spec.app == "paircount") {
    app = std::make_unique<PairCountApp>();
  } else if (spec.app == "doctermcount") {
    app = std::make_unique<DocTermCountApp>();
  } else {
    return Status::InvalidArgument("apps: not a single-round app: " +
                                   spec.app);
  }
  return app;
}

std::shared_ptr<const ingest::RecordFormat> record_format(
    const core::ReplaySpec& spec) {
  if (spec.app == "sort" || spec.app == "msort") {
    return std::make_shared<ingest::CrlfFormat>();
  }
  return std::make_shared<ingest::LineFormat>();
}

StatusOr<std::unique_ptr<ingest::IngestSource>> make_source(
    const core::ReplaySpec& spec, const ChainInputs& inputs) {
  std::unique_ptr<ingest::IngestSource> source;
  if (reads_files(spec)) {
    if (inputs.files.empty()) {
      return Status::InvalidArgument(spec.app + " reads input files");
    }
    source = std::make_unique<ingest::MultiFileSource>(
        inputs.files, static_cast<std::size_t>(spec.files_per_chunk),
        spec.io);
  } else {
    if (inputs.device == nullptr) {
      return Status::InvalidArgument(spec.app + " reads one input device");
    }
    source = std::make_unique<ingest::SingleDeviceSource>(
        inputs.device, record_format(spec), spec.chunk_bytes, spec.io);
  }
  return source;
}

StatusOr<std::shared_ptr<const storage::Device>> with_faults(
    std::shared_ptr<const storage::Device> device,
    const core::ReplaySpec& spec, const fault::RetryPolicy& policy) {
  if (!spec.fault_plan.empty()) {
    SUPMR_ASSIGN_OR_RETURN(fault::FaultPlan plan,
                           fault::FaultPlan::parse(spec.fault_plan));
    device = std::make_shared<storage::FaultDevice>(device, std::move(plan));
  }
  if (policy.enabled()) {
    device = std::make_shared<fault::RetryingDevice>(device, policy);
  }
  return device;
}

StatusOr<cluster::ClusterJob> make_cluster_job(const core::ReplaySpec& spec,
                                               std::string input) {
  SUPMR_RETURN_IF_ERROR(make_app(spec).status());
  cluster::ClusterJob job;
  job.input = std::move(input);
  job.format = record_format(spec);
  job.make_app = [spec]() -> std::unique_ptr<core::Application> {
    auto app = make_app(spec);
    return app.ok() ? std::move(app).value() : nullptr;
  };
  job.config = spec.job_config();
  job.chunk_bytes = spec.chunk_bytes;
  if (spec.app == "sort") job.record_bytes = spec.record_bytes;
  return job;
}

StatusOr<graph::JobGraph> make_chain(const core::ReplaySpec& spec,
                                     const ChainInputs& inputs) {
  graph::JobGraph g;
  // A root stage reads the spec's input; the join stages read their
  // in-edges.
  auto set_root = [&](std::size_t stage) -> Status {
    SUPMR_ASSIGN_OR_RETURN(std::shared_ptr<const ingest::IngestSource> source,
                           make_source(spec, inputs));
    return g.set_source(stage, std::move(source));
  };
  if (spec.app == "pmi") {
    const std::size_t wc = g.add_stage(
        [] { return std::make_unique<WordCountApp>(); },
        stage(spec, "wordcount"));
    const std::size_t pc = g.add_stage(
        [] { return std::make_unique<PairCountApp>(); },
        stage(spec, "paircount"));
    const std::size_t join = g.add_stage(
        [] { return std::make_unique<PmiApp>(); }, stage(spec, "pmi"));
    SUPMR_RETURN_IF_ERROR(set_root(wc));
    SUPMR_RETURN_IF_ERROR(set_root(pc));
    SUPMR_RETURN_IF_ERROR(g.add_edge(wc, join));
    SUPMR_RETURN_IF_ERROR(g.add_edge(pc, join));
    return g;
  }
  if (spec.app == "tfidf") {
    const std::size_t index = g.add_stage(
        [] { return std::make_unique<InvertedIndexApp>(); },
        stage(spec, "index"));
    const std::size_t dtc = g.add_stage(
        [] { return std::make_unique<DocTermCountApp>(); },
        stage(spec, "doctermcount"));
    const std::size_t join = g.add_stage(
        [] { return std::make_unique<TfIdfApp>(); }, stage(spec, "tfidf"));
    SUPMR_RETURN_IF_ERROR(set_root(index));
    SUPMR_RETURN_IF_ERROR(set_root(dtc));
    SUPMR_RETURN_IF_ERROR(g.add_edge(index, join));
    SUPMR_RETURN_IF_ERROR(g.add_edge(dtc, join));
    return g;
  }
  if (spec.app == "msort") {
    ScatterOptions sopt;
    sopt.key_bytes = static_cast<std::uint32_t>(spec.key_bytes);
    sopt.record_bytes = static_cast<std::uint32_t>(spec.record_bytes);
    const TeraSortOptions topt = tera_sort_options(spec);
    const std::size_t scatter = g.add_stage(
        [sopt] { return std::make_unique<ScatterApp>(sopt); },
        stage(spec, "scatter"));
    const std::size_t sort = g.add_stage(
        [topt] { return std::make_unique<TeraSortApp>(topt); },
        stage(spec, "terasort"));
    SUPMR_RETURN_IF_ERROR(set_root(scatter));
    SUPMR_RETURN_IF_ERROR(g.add_edge(scatter, sort));
    return g;
  }
  return Status::InvalidArgument("chains: not a graph app: " + spec.app);
}

}  // namespace supmr::apps
