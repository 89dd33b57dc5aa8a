// supmr — command-line front end for the SupMR runtime.
//
// The app subcommands read their flags into a core::ReplaySpec and build
// the run from it with the run builder (src/apps/chains.hpp) — the same
// builder the conformance harness checks against the sequential oracle.
//
//   supmr wordcount <file>        [--top=10] [--budget=SIZE]
//   supmr sort <file>             [--out=<f>] [--key-bytes=10]
//                                 [--record-bytes=100]
//   supmr grep <patterns> <file>  (comma-separated patterns)
//   supmr histogram <file>        [--lo=0] [--hi=256] [--bins=32]
//   supmr index <file...>         [--files-per-chunk=4]
//   supmr kmeans <points-file>    [--clusters=4] [--dim=2] [--iters=30]
//   supmr generate <kind> <path>  --size=64MB  (kind: text | terasort |
//                                 numeric | points)
//   supmr replay <spec.json>      re-run a conformance cell from a spec file
//                                 (also spelled --replay=<spec.json>): print
//                                 the spec, a graph's or cluster's breakdown
//                                 and "conformance: PASS|FAIL"; exit non-zero
//                                 when the cell diverges from the sequential
//                                 reference runtime (docs/testing.md)
//   supmr graph --spec=<spec.json>    replay for chained-app specs only (app
//                                 pmi | tfidf | msort; docs/graphs.md)
//   supmr cluster --spec=<spec.json>  replay for sharded-shuffle specs only
//                                 ("cluster":{"nodes":N,...};
//                                 docs/cluster.md)
//   supmr serve --jobs=<spec.json>  multi-tenant mode: run every job in the
//                                 spec concurrently through one JobManager,
//                                 each oracle-checked against the sequential
//                                 reference (docs/runtime.md); exits
//                                 non-zero on any failure or divergence
//
// Every app subcommand reads the run flags (kRunFlags below), all but
// kmeans read --trace, and wordcount, sort, grep and histogram also read
// the cluster flags (kClusterFlags). A subcommand rejects every flag it
// does not read; docs/cli.md describes each one.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "apps/chains.hpp"
#include "apps/grep.hpp"
#include "apps/histogram.hpp"
#include "apps/inverted_index.hpp"
#include "apps/kmeans.hpp"
#include "apps/tera_sort.hpp"
#include "apps/word_count.hpp"
#include "cluster/cluster_job.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "core/job.hpp"
#include "core/proc_sampler.hpp"
#include "core/replay.hpp"
#include "core/report.hpp"
#include "fault/fault_plan.hpp"
#include "obs/output_files.hpp"
#include "ref/conformance.hpp"
#include "runtime/job_manager.hpp"
#include "runtime/serve_spec.hpp"
#include "storage/file_device.hpp"
#include "storage/mmap_device.hpp"
#include "storage/rate_limiter.hpp"
#include "storage/throttled_device.hpp"
#include "tools/flags.hpp"
#include "wload/numeric.hpp"
#include "wload/teragen.hpp"
#include "wload/text_corpus.hpp"

namespace supmr::tools {
namespace {

// The flags every app subcommand reads: the job, device and output knobs.
const std::set<std::string> kRunFlags = {
    "mode", "merge", "threads", "chunk", "io", "throttle", "metrics-json",
    "trace-out", "json", "verbose", "retry-attempts", "retry-backoff",
    "retry-backoff-max", "retry-deadline", "retry-seed", "fault-plan",
    "degrade"};
// The sharded-shuffle flags, read by the single-device spec apps.
const std::set<std::string> kClusterFlags = {
    "nodes", "node-link-bps", "uplink-bps", "node-disk-bps"};

void usage() {
  std::fprintf(stderr,
               "usage: supmr <command> [args] [flags]\n"
               "commands: wordcount sort grep histogram index kmeans generate"
               " replay serve graph cluster\n"
               "see docs/cli.md for the flags each command reads\n");
}

// A run subcommand's flags: the spec its run is built from, plus what a
// spec does not hold.
struct RunFlags {
  core::ReplaySpec spec;
  // Backoff, deadline and jitter seed; spec.retry_attempts is the count.
  fault::RetryPolicy retry;
  // --metrics-json and --trace-out: written once, after the whole run.
  obs::OutputFiles obs;
  std::optional<double> throttle_bps;
  std::optional<std::string> trace_path;
  bool json = false;

  // spec.job_config() plus the knobs a spec does not hold.
  core::JobConfig job_config() const {
    core::JobConfig cfg = spec.job_config();
    fault::RetryPolicy& policy = cfg.recovery.policy;
    policy.backoff_base_s = retry.backoff_base_s;
    policy.backoff_max_s = retry.backoff_max_s;
    policy.read_deadline_s = retry.read_deadline_s;
    policy.seed = retry.seed;
    return cfg;
  }
};

// Parses a --flag whose value is a duration (e.g. 1ms, 2s) into seconds.
StatusOr<double> get_duration(const Flags& flags, const std::string& name,
                              double def) {
  auto v = flags.get(name);
  if (!v) return def;
  auto parsed = fault::parse_duration(*v);
  if (!parsed.ok()) {
    return Status::InvalidArgument("bad duration for --" + name + ": " + *v);
  }
  return *parsed;
}

// Reads the run flags into a spec for `app`. The CLI keeps its own
// defaults where a spec's differ: 64 MB chunks, 4 files per chunk, one
// thread per hardware context.
StatusOr<RunFlags> run_flags(const Flags& flags, std::string app) {
  RunFlags run;
  core::ReplaySpec& spec = run.spec;
  spec.app = std::move(app);
  spec.files_per_chunk = 4;
  // Enum flags parse through the shared name tables (common/enum_names.hpp)
  // — the same vocabulary the replay/serve/graph spec parsers accept.
  SUPMR_ASSIGN_OR_RETURN(
      spec.mode, core::exec_mode_from_name(flags.get_or("mode", "supmr")));
  SUPMR_ASSIGN_OR_RETURN(
      spec.merge_mode,
      core::merge_mode_from_name(flags.get_or("merge", "pway")));
  SUPMR_ASSIGN_OR_RETURN(
      spec.io, core::io_mode_from_name(flags.get_or("io", "read")));
  SUPMR_ASSIGN_OR_RETURN(spec.threads, flags.get_int("threads", 0));
  if (spec.threads == 0) spec.threads = core::JobConfig::default_threads();
  if (flags.get_or("chunk", "") == "none") {
    spec.chunk_bytes = 0;
  } else {
    SUPMR_ASSIGN_OR_RETURN(spec.chunk_bytes, flags.get_size("chunk", 64 * kMB));
  }
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t throttle, flags.get_size("throttle", 0));
  if (throttle > 0) run.throttle_bps = double(throttle);
  run.trace_path = flags.get("trace");
  run.obs.metrics_file = flags.get_or("metrics-json", "");
  run.obs.trace_file = flags.get_or("trace-out", "");
  run.json = flags.get_bool("json");
  if (flags.get_bool("verbose")) Logger::set_level(LogLevel::kInfo);

  // Fault tolerance: retry policy + degrade mode + injection plan.
  SUPMR_ASSIGN_OR_RETURN(std::uint32_t attempts,
                         flags.get_int<std::uint32_t>("retry-attempts", 1));
  if (attempts == 0) {
    return Status::InvalidArgument("--retry-attempts must be >= 1");
  }
  spec.retry_attempts = attempts;
  fault::RetryPolicy& retry = run.retry;
  for (auto [name, seconds] :
       {std::pair{"retry-backoff", &retry.backoff_base_s},
        {"retry-backoff-max", &retry.backoff_max_s},
        {"retry-deadline", &retry.read_deadline_s}}) {
    SUPMR_ASSIGN_OR_RETURN(*seconds, get_duration(flags, name, *seconds));
  }
  SUPMR_ASSIGN_OR_RETURN(retry.seed, flags.get_int("retry-seed", retry.seed));
  spec.degrade = flags.get_bool("degrade");
  spec.fault_plan = flags.get_or("fault-plan", "");
  if (!spec.fault_plan.empty()) {
    SUPMR_RETURN_IF_ERROR(fault::FaultPlan::parse(spec.fault_plan).status());
  }
  if (spec.degrade && spec.fault_plan.empty()) {
    return Status::InvalidArgument(
        "--degrade requires --fault-plan: degrade mode skips poisoned "
        "chunks, and without an injection plan there is nothing to degrade "
        "around (a real deployment's faults come from the device itself)");
  }

  // Cluster topology: --nodes routes the job through the sharded-shuffle
  // runtime (src/cluster/, docs/cluster.md). The bandwidth knobs are
  // meaningless without a node count, so they hard-reject rather than
  // silently doing nothing.
  SUPMR_ASSIGN_OR_RETURN(spec.cluster_nodes, flags.get_int("nodes", 0));
  if (flags.get("nodes") && !spec.is_cluster()) {
    return Status::InvalidArgument("--nodes must be >= 1");
  }
  SUPMR_RETURN_IF_ERROR(core::check_thread_count(
      spec.threads, spec.cluster_nodes, "--threads", "--nodes"));
  for (auto [knob, value] :
       {std::pair{"node-link-bps", &spec.cluster_link_bps},
        {"uplink-bps", &spec.cluster_uplink_bps},
        {"node-disk-bps", &spec.cluster_disk_bps}}) {
    if (flags.get(knob) && !spec.is_cluster()) {
      return Status::InvalidArgument(std::string("--") + knob +
                                     " requires --nodes");
    }
    SUPMR_ASSIGN_OR_RETURN(*value, flags.get_size(knob, 0));
  }
  if (spec.is_cluster()) {
    if (!spec.fault_plan.empty()) {
      return Status::InvalidArgument(
          "--nodes does not combine with --fault-plan/--degrade (nodes read "
          "borrowed views of the input, not a device a plan can fault)");
    }
    if (run.throttle_bps) {
      return Status::InvalidArgument(
          "--nodes does not combine with --throttle: model per-node ingest "
          "disks with --node-disk-bps instead");
    }
    if (run.trace_path) {
      return Status::InvalidArgument(
          "--nodes does not combine with --trace: the utilization trace "
          "samples one in-process job");
    }
  }
  return run;
}

// Opens `path` as a run's input device stack:
//   FileDevice|MmapDevice -> [ThrottledDevice] -> [FaultDevice] ->
//   [RetryingDevice]
// The fault and retry layers come from apps::with_faults, the stack the
// conformance harness reads through too.
StatusOr<std::shared_ptr<const storage::Device>> open_input(
    const std::string& path, const RunFlags& run,
    const fault::RetryPolicy& policy) {
  std::shared_ptr<const storage::Device> dev;
  if (run.spec.io == core::IoMode::kMmap) {
    // Zero-copy base device. Any wrapper stacked above refuses to lend
    // views, so --throttle/--fault-plan/retry transparently force the
    // sources back onto the copying read path (a page fault cannot be
    // retried or rate-limited).
    SUPMR_ASSIGN_OR_RETURN(dev, storage::MmapDevice::open(path));
  } else {
    SUPMR_ASSIGN_OR_RETURN(dev, storage::FileDevice::open(path));
  }
  if (run.throttle_bps) {
    auto limiter = std::make_shared<storage::RateLimiter>(*run.throttle_bps);
    dev = std::make_shared<storage::ThrottledDevice>(dev, limiter);
  }
  return apps::with_faults(std::move(dev), run.spec, policy);
}

// Where a subcommand's human-readable lines go: stderr under --json, so
// stdout carries exactly one JSON document.
std::FILE* human_out(const RunFlags& run) { return run.json ? stderr : stdout; }

// Under --json a failed run still leaves one document on stdout: the error
// report.
Status report_failure(const RunFlags& run, const Status& status) {
  if (run.json) std::printf("%s\n", core::status_to_json(status).c_str());
  return status;
}

// Ends a run that returned `status`: after a success, writes the
// --metrics-json and --trace-out files, before anything is printed, so a
// file that cannot be written fails the command with its report as the one
// --json document.
Status end_run(const RunFlags& run, Status status) {
  if (status.ok()) status = run.obs.write();
  return status.ok() ? status : report_failure(run, status);
}

// Reads a whole file into a string (spec files, cluster inputs).
StatusOr<std::string> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

// Writes `bytes` to a new file at `path`.
Status write_file(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot create " + path);
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  if (!ok) return Status::IoError("short write to " + path);
  return Status::Ok();
}

// The --json report of a --nodes run: totals, then each node's bytes.
std::string cluster_result_to_json(const cluster::ClusterResult& result) {
  JsonWriter w;
  w.begin_object();
  w.kv("elapsed_s", result.elapsed_s);
  w.key("phases");
  w.begin_object();
  w.kv("slice_s", result.slice_s);
  w.kv("map_s", result.map_s);
  w.kv("route_s", result.route_s);
  w.kv("merge_s", result.merge_s);
  w.end_object();
  w.kv("output_bytes", result.output.size());
  w.kv("map_output_bytes", result.map_output_bytes);
  w.kv("shuffle_bytes", result.shuffle_bytes);
  w.kv("local_bytes", result.local_bytes);
  w.key("nodes");
  w.begin_array();
  for (const cluster::NodeStats& node : result.nodes) {
    w.begin_object();
    w.kv("input_bytes", node.input_bytes);
    w.kv("map_output_bytes", node.map_output_bytes);
    w.kv("sent_bytes", node.sent_bytes);
    w.kv("recv_bytes", node.recv_bytes);
    w.kv("local_bytes", node.local_bytes);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

// What a run subcommand prints from: the app after an inline run, or the
// reassembled output of a cluster run (app stays null).
struct RunOutput {
  std::unique_ptr<core::Application> app;
  std::string cluster_output;
};

// A cluster spec's run (docs/cluster.md): the input is slurped and sliced
// across simulated nodes instead of read by one MapReduceJob, then the
// shuffle accounting is printed (with --json, as cluster_result_to_json).
// The product is the reassembled global output, identical to the
// single-node run byte for byte.
StatusOr<RunOutput> run_cluster_spec(const RunFlags& run,
                                     const std::string& path) {
  SUPMR_ASSIGN_OR_RETURN(std::string input, slurp(path));
  StatusOr<cluster::ClusterJob> job =
      apps::make_cluster_job(run.spec, std::move(input));
  if (!job.ok()) return report_failure(run, job.status());
  job->config = run.job_config();
  run.obs.begin();
  StatusOr<cluster::ClusterResult> result = cluster::run_cluster(*job);
  SUPMR_RETURN_IF_ERROR(end_run(run, result.status()));
  std::FILE* out = human_out(run);
  std::fprintf(out, "cluster: %zu node(s), map output %s, shuffled %s "
               "cross-node, %s stayed local\n",
               result->nodes.size(),
               format_bytes(result->map_output_bytes).c_str(),
               format_bytes(result->shuffle_bytes).c_str(),
               format_bytes(result->local_bytes).c_str());
  for (std::size_t i = 0; i < result->nodes.size(); ++i) {
    const cluster::NodeStats& node = result->nodes[i];
    std::fprintf(out, "  node %zu: in %s, map-out %s, sent %s, recv %s\n",
                 i, format_bytes(node.input_bytes).c_str(),
                 format_bytes(node.map_output_bytes).c_str(),
                 format_bytes(node.sent_bytes).c_str(),
                 format_bytes(node.recv_bytes).c_str());
  }
  std::fprintf(out,
               "cluster: %s output in %.3fs (slice %.3fs, map %.3fs, route "
               "%.3fs, merge %.3fs)\n",
               format_bytes(result->output.size()).c_str(), result->elapsed_s,
               result->slice_s, result->map_s, result->route_s,
               result->merge_s);
  if (run.json) std::printf("%s\n", cluster_result_to_json(*result).c_str());
  return RunOutput{nullptr, std::move(result->output)};
}

// Runs `run.spec` over the input `paths` and prints the phase row (with
// --json, the job report). A cluster spec runs through make_cluster_job;
// every other spec runs inline, over one device stack per path: index reads
// them all as files, the other apps read the first.
StatusOr<RunOutput> run_spec(const RunFlags& run,
                       const std::vector<std::string>& paths) {
  const core::ReplaySpec& spec = run.spec;
  if (spec.is_cluster()) return run_cluster_spec(run, paths.front());
  const core::JobConfig cfg = run.job_config();
  SUPMR_ASSIGN_OR_RETURN(std::unique_ptr<core::Application> app,
                         apps::make_app(spec));
  apps::ChainInputs inputs;
  for (const std::string& path : paths) {
    SUPMR_ASSIGN_OR_RETURN(auto dev,
                           open_input(path, run, cfg.recovery.policy));
    inputs.files.push_back(std::move(dev));
  }
  inputs.device = inputs.files.front();
  SUPMR_ASSIGN_OR_RETURN(std::unique_ptr<ingest::IngestSource> source,
                         apps::make_source(spec, inputs));

  core::MapReduceJob job(*app, *source, cfg);
  run.obs.begin();
  core::ProcStatSampler sampler(0.1);
  const bool tracing =
      run.trace_path.has_value() && core::ProcStatSampler::available();
  if (tracing) sampler.start();
  // --chunk=none/0 degenerates to the original one-shot ingest even when
  // --mode asked for a pipelined runtime (there is nothing to pipeline).
  const core::ExecMode mode =
      spec.chunk_bytes == 0 ? core::ExecMode::kOriginal : spec.mode;
  StatusOr<core::JobResult> result = job.run(mode);
  if (tracing) {
    TimeSeries trace = sampler.stop();
    trace.write_csv(*run.trace_path);
    std::fprintf(human_out(run), "utilization trace (%zu samples) -> %s\n",
                 trace.samples(), run.trace_path->c_str());
  }
  SUPMR_RETURN_IF_ERROR(end_run(run, result.status()));
  if (run.json) {
    std::printf("%s\n", core::job_result_to_json(*result).c_str());
  } else {
    std::printf("%s\n%s\n", PhaseBreakdown::table_header().c_str(),
                result->phases
                    .to_table_row(std::string(core::exec_mode_name(spec.mode)))
                    .c_str());
    std::printf("chunks=%llu map_rounds=%llu merge_rounds=%llu results=%llu\n",
                (unsigned long long)result->chunks,
                (unsigned long long)result->map_rounds,
                (unsigned long long)result->phases.merge_rounds,
                (unsigned long long)result->result_count);
  }
  return RunOutput{std::move(app), {}};
}

// ----------------------------------------------------------- subcommands

Status cmd_wordcount(const Flags& flags) {
  if (flags.positional().empty()) {
    return Status::InvalidArgument("wordcount needs an input file");
  }
  SUPMR_ASSIGN_OR_RETURN(RunFlags run, run_flags(flags, "wordcount"));
  // --budget=SIZE holds the table to the budget: the xwordcount spec app,
  // word count that spills sorted runs and folds them back after the merge.
  SUPMR_ASSIGN_OR_RETURN(run.spec.memory_budget, flags.get_size("budget", 0));
  if (run.spec.memory_budget > 0) run.spec.app = "xwordcount";
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t top, flags.get_int("top", 10));
  SUPMR_ASSIGN_OR_RETURN(RunOutput ran,
                         run_spec(run, {flags.positional()[0]}));
  if (ran.app == nullptr) return Status::Ok();
  const auto& app = static_cast<const apps::WordCountApp&>(*ran.app);
  if (run.spec.memory_budget > 0) {
    std::fprintf(human_out(run), "spilled runs: %zu\n", app.runs_spilled());
  }
  std::vector<std::pair<std::string, std::uint64_t>> words = app.results();
  const std::size_t n = std::min<std::size_t>(top, words.size());
  std::partial_sort(words.begin(), words.begin() + n, words.end(),
                    [](const auto& a, const auto& b) {
                      return a.second > b.second;
                    });
  for (std::size_t i = 0; i < n; ++i)
    std::fprintf(human_out(run), "%10llu  %s\n",
                 (unsigned long long)words[i].second, words[i].first.c_str());
  return Status::Ok();
}

Status cmd_sort(const Flags& flags) {
  if (flags.positional().empty()) {
    return Status::InvalidArgument("sort needs an input file");
  }
  SUPMR_ASSIGN_OR_RETURN(RunFlags run, run_flags(flags, "sort"));
  core::ReplaySpec& spec = run.spec;
  SUPMR_ASSIGN_OR_RETURN(spec.key_bytes, flags.get_int("key-bytes", 10));
  SUPMR_ASSIGN_OR_RETURN(spec.record_bytes, flags.get_int("record-bytes", 100));
  SUPMR_RETURN_IF_ERROR(core::check_sort_geometry(
      spec.key_bytes, spec.record_bytes, "--key-bytes", "--record-bytes"));
  SUPMR_ASSIGN_OR_RETURN(RunOutput ran,
                         run_spec(run, {flags.positional()[0]}));
  std::string_view sorted = ran.cluster_output;
  if (ran.app != nullptr) {
    const auto& app = static_cast<const apps::TeraSortApp&>(*ran.app);
    if (app.malformed_records() > 0) {
      std::fprintf(human_out(run), "warning: %llu malformed records\n",
                   (unsigned long long)app.malformed_records());
    }
    sorted = app.sorted_data();
  }
  if (auto out = flags.get("out")) {
    SUPMR_RETURN_IF_ERROR(write_file(*out, sorted));
    std::fprintf(human_out(run), "sorted output (%s) -> %s\n",
                 format_bytes(sorted.size()).c_str(), out->c_str());
  }
  return Status::Ok();
}

Status cmd_grep(const Flags& flags) {
  if (flags.positional().size() < 2) {
    return Status::InvalidArgument("grep needs <patterns> <file>");
  }
  SUPMR_ASSIGN_OR_RETURN(RunFlags run, run_flags(flags, "grep"));
  run.spec.grep_patterns = flags.positional()[0];
  SUPMR_ASSIGN_OR_RETURN(RunOutput ran,
                         run_spec(run, {flags.positional()[1]}));
  if (ran.app == nullptr) return Status::Ok();
  const auto& app = static_cast<const apps::GrepApp&>(*ran.app);
  for (const auto& [pattern, hits] : app.results())
    std::fprintf(human_out(run), "%10llu  %s\n", (unsigned long long)hits,
                 pattern.c_str());
  std::fprintf(human_out(run), "lines scanned: %llu\n",
               (unsigned long long)app.lines_scanned());
  return Status::Ok();
}

Status cmd_histogram(const Flags& flags) {
  if (flags.positional().empty()) {
    return Status::InvalidArgument("histogram needs an input file");
  }
  SUPMR_ASSIGN_OR_RETURN(RunFlags run, run_flags(flags, "histogram"));
  core::ReplaySpec& spec = run.spec;
  SUPMR_ASSIGN_OR_RETURN(spec.hist_lo, flags.get_int<std::int64_t>("lo", 0));
  SUPMR_ASSIGN_OR_RETURN(spec.hist_hi, flags.get_int<std::int64_t>("hi", 256));
  SUPMR_ASSIGN_OR_RETURN(spec.hist_bins, flags.get_int("bins", 32));
  SUPMR_ASSIGN_OR_RETURN(RunOutput ran,
                         run_spec(run, {flags.positional()[0]}));
  if (ran.app == nullptr) return Status::Ok();
  const auto& app = static_cast<const apps::HistogramApp&>(*ran.app);
  std::uint64_t peak = 1;
  for (auto c : app.counts()) peak = std::max(peak, c);
  for (std::size_t b = 0; b < app.counts().size(); ++b) {
    const int bar = int(double(app.counts()[b]) / double(peak) * 50.0);
    std::fprintf(human_out(run), "[%6lld,%6lld) %10llu |%.*s\n",
                 (long long)app.bin_start(b), (long long)app.bin_start(b + 1),
                 (unsigned long long)app.counts()[b], bar,
                 "##################################################");
  }
  std::fprintf(human_out(run), "parsed=%llu out-of-range=%llu\n",
               (unsigned long long)app.values_parsed(),
               (unsigned long long)app.values_out_of_range());
  return Status::Ok();
}

Status cmd_index(const Flags& flags) {
  if (flags.positional().empty()) {
    return Status::InvalidArgument("index needs input files");
  }
  SUPMR_ASSIGN_OR_RETURN(RunFlags run, run_flags(flags, "index"));
  SUPMR_ASSIGN_OR_RETURN(run.spec.files_per_chunk,
                         flags.get_int("files-per-chunk", 4));
  SUPMR_ASSIGN_OR_RETURN(RunOutput ran,
                         run_spec(run, flags.positional()));
  std::fprintf(human_out(run), "%llu words indexed across %zu files\n",
               (unsigned long long)static_cast<const apps::InvertedIndexApp&>(
                   *ran.app).index().size(),
               flags.positional().size());
  return Status::Ok();
}

// kmeans is not a spec app: run_kmeans drives its own iterations, so it
// reads the run flags into a spec only for the JobConfig and the source.
Status cmd_kmeans(const Flags& flags) {
  if (flags.positional().empty()) {
    return Status::InvalidArgument("kmeans needs an input points file");
  }
  SUPMR_ASSIGN_OR_RETURN(RunFlags run, run_flags(flags, "kmeans"));
  const core::JobConfig cfg = run.job_config();
  apps::ChainInputs inputs;
  SUPMR_ASSIGN_OR_RETURN(
      inputs.device,
      open_input(flags.positional()[0], run, cfg.recovery.policy));
  SUPMR_ASSIGN_OR_RETURN(std::size_t clusters,
                         flags.get_int<std::size_t>("clusters", 4));
  SUPMR_ASSIGN_OR_RETURN(std::size_t dim, flags.get_int<std::size_t>("dim", 2));
  SUPMR_ASSIGN_OR_RETURN(std::size_t iters,
                         flags.get_int<std::size_t>("iters", 30));
  apps::KMeansOptions opt;
  opt.clusters = clusters;
  opt.dim = dim;
  // Initial centroids: spread along the diagonal (a real deployment would
  // sample the input; deterministic here).
  std::vector<std::vector<double>> init(clusters,
                                        std::vector<double>(dim, 0.0));
  for (std::size_t c = 0; c < clusters; ++c)
    for (std::size_t d = 0; d < dim; ++d)
      init[c][d] = 100.0 * double(c + 1) / double(clusters + 1);
  SUPMR_ASSIGN_OR_RETURN(std::unique_ptr<ingest::IngestSource> source,
                         apps::make_source(run.spec, inputs));
  run.obs.begin();
  auto result =
      apps::run_kmeans(*source, cfg, opt, std::move(init), iters, 1e-6);
  SUPMR_RETURN_IF_ERROR(end_run(run, result.status()));
  std::FILE* out = human_out(run);
  std::fprintf(out, "k-means: %zu iterations over %llu points (%.3fs, final "
               "shift %.2g)\n",
               result->iterations, (unsigned long long)result->points,
               result->total_s, result->final_shift);
  for (std::size_t c = 0; c < clusters; ++c) {
    std::fprintf(out, "  centroid %zu: (", c);
    for (std::size_t d = 0; d < dim; ++d)
      std::fprintf(out, "%s%.4f", d ? ", " : "", result->centroids[c][d]);
    std::fprintf(out, ")\n");
  }
  if (run.json) {
    JsonWriter w;
    w.begin_object();
    w.kv("iterations", result->iterations);
    w.kv("points", result->points);
    w.kv("total_s", result->total_s);
    w.kv("final_shift", result->final_shift);
    w.key("centroids");
    w.begin_array();
    for (const std::vector<double>& centroid : result->centroids) {
      w.begin_array();
      for (const double x : centroid) w.value(x);
      w.end_array();
    }
    w.end_array();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  }
  return Status::Ok();
}

Status cmd_generate(const Flags& flags) {
  if (flags.positional().size() < 2) {
    return Status::InvalidArgument("generate needs <kind> <path>");
  }
  const std::string& kind = flags.positional()[0];
  const std::string& path = flags.positional()[1];
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t size,
                         flags.get_size("size", 64 * kMB));
  if (kind == "text") {
    wload::TextCorpusConfig cfg;
    cfg.total_bytes = size;
    SUPMR_RETURN_IF_ERROR(wload::generate_text_file(cfg, path));
  } else if (kind == "terasort") {
    wload::TeraGenConfig cfg;
    cfg.num_records = size / cfg.record_bytes;
    SUPMR_RETURN_IF_ERROR(wload::teragen_to_file(cfg, path));
  } else if (kind == "points") {
    wload::PointsConfig cfg;
    cfg.num_points = size / 18;  // ~18 bytes per 2-d line
    SUPMR_RETURN_IF_ERROR(write_file(path, wload::generate_points(cfg)));
  } else if (kind == "numeric") {
    wload::NumericConfig cfg;
    cfg.num_values = size / 4;  // ~4 bytes per line
    SUPMR_RETURN_IF_ERROR(write_file(path, wload::generate_numeric(cfg)));
  } else {
    return Status::InvalidArgument("unknown dataset kind: " + kind);
  }
  std::printf("generated %s dataset (~%s) -> %s\n", kind.c_str(),
              format_bytes(size).c_str(), path.c_str());
  return Status::Ok();
}

// replay, graph and cluster: re-runs one conformance cell from a spec file
// (docs/testing.md) and prints the spec, the stage and handoff breakdown of
// a graph spec or the shuffle breakdown of a cluster spec, and the verdict.
// `replay` takes any spec, from its first argument; `graph` and `cluster`
// take only their own kind, from --spec or their first argument. Non-zero
// exit iff the cell fails or still diverges, so CI and bisect scripts can
// drive it.
Status cmd_replay(const std::string& command, const Flags& flags) {
  const std::string path = flags.get_or(
      "spec", flags.positional().empty() ? "" : flags.positional()[0]);
  if (path.empty()) {
    return Status::InvalidArgument(command == "replay"
                                       ? "replay needs a spec file"
                                       : command + " needs --spec=<spec.json>");
  }
  SUPMR_ASSIGN_OR_RETURN(std::string text, slurp(path));
  SUPMR_ASSIGN_OR_RETURN(core::ReplaySpec spec,
                         core::ReplaySpec::from_json(text));
  if (command == "graph" && !spec.is_graph()) {
    return Status::InvalidArgument(
        "graph needs a chained app (pmi | tfidf | msort), got: " + spec.app);
  }
  if (command == "cluster" && !spec.is_cluster()) {
    return Status::InvalidArgument(
        "cluster needs a spec with cluster.nodes >= 1 (app " + spec.app +
        ", nodes=0)");
  }
  std::printf("%s: %s\n", command.c_str(), spec.to_json().c_str());
  SUPMR_ASSIGN_OR_RETURN(ref::ConformanceOutcome outcome,
                         ref::run_cell(spec));
  if (spec.is_graph()) {
    std::printf("graph: %llu stages, handoff %llu bytes in memory, "
                "spilled %llu bytes across %llu file(s)\n",
                (unsigned long long)outcome.graph_stages,
                (unsigned long long)outcome.graph_handoff_bytes,
                (unsigned long long)outcome.graph_spill_bytes,
                (unsigned long long)outcome.graph_spill_files);
  }
  if (spec.is_cluster()) {
    std::printf("cluster: %llu node(s), map output %llu bytes, %llu shuffled "
                "cross-node, %llu local, owned max/min %llu/%llu bytes "
                "(slice %.3fs, map %.3fs, route %.3fs, merge %.3fs)\n",
                (unsigned long long)outcome.cluster_nodes,
                (unsigned long long)outcome.cluster_map_output_bytes,
                (unsigned long long)outcome.cluster_shuffle_bytes,
                (unsigned long long)outcome.cluster_local_bytes,
                (unsigned long long)outcome.cluster_recv_max_bytes,
                (unsigned long long)outcome.cluster_recv_min_bytes,
                outcome.cluster_slice_s, outcome.cluster_map_s,
                outcome.cluster_route_s, outcome.cluster_merge_s);
  }
  if (!outcome.match) {
    std::printf("conformance: FAIL\n%s\n", outcome.diff.c_str());
    return Status::Internal(command + ": cell diverges from the reference");
  }
  std::printf("conformance: PASS (%llu output bytes",
              (unsigned long long)outcome.sut_canonical.size());
  if (!spec.is_graph() && !spec.is_cluster()) {
    std::printf(", %llu chunks, %llu skipped",
                (unsigned long long)outcome.job.chunks,
                (unsigned long long)outcome.job.chunks_skipped);
  }
  std::printf(")\n");
  return Status::Ok();
}

// Multi-tenant mode (docs/runtime.md): one JobManager, many concurrent
// jobs. Every entry in the --jobs spec is a conformance cell: a client
// thread submits it through the manager (honoring priority / lease
// overrides) and checks the managed run byte-for-byte against the
// sequential reference. Non-zero exit iff any job fails or diverges.
Status cmd_serve(const Flags& flags) {
  std::string path = flags.get_or("jobs", "");
  if (path.empty() && !flags.positional().empty()) {
    path = flags.positional()[0];
  }
  if (path.empty()) {
    return Status::InvalidArgument("serve needs --jobs=<spec.json>");
  }
  SUPMR_ASSIGN_OR_RETURN(std::string text, slurp(path));
  SUPMR_ASSIGN_OR_RETURN(runtime::ServeSpec spec,
                         runtime::parse_serve_spec(text));
  runtime::JobManager::Options opts;
  if (spec.pool_threads != 0) opts.num_threads = spec.pool_threads;
  if (spec.memory_budget_bytes != 0) {
    opts.memory_budget_bytes = spec.memory_budget_bytes;
  }
  if (spec.max_queued != 0) opts.max_queued = spec.max_queued;
  runtime::JobManager manager(opts);

  struct ClientJob {
    const runtime::ServeJobSpec* job = nullptr;
    std::string name;
    Status status = Status::Ok();
    std::string diff;
    std::uint64_t output_bytes = 0;
  };
  std::vector<ClientJob> clients;
  for (const runtime::ServeJobSpec& job : spec.jobs) {
    const std::string base = job.name.empty() ? job.spec.app : job.name;
    for (std::size_t r = 0; r < job.repeat; ++r) {
      ClientJob c;
      c.job = &job;
      c.name = job.repeat > 1 ? base + "#" + std::to_string(r) : base;
      clients.push_back(std::move(c));
    }
  }
  std::printf("serve: pool=%llu threads, budget=%s, %llu job(s) from %s\n",
              (unsigned long long)manager.options().num_threads,
              format_bytes(manager.options().memory_budget_bytes).c_str(),
              (unsigned long long)clients.size(), path.c_str());

  // One client thread per job instance so submissions genuinely race: the
  // manager's admission queue and leases are the only coordination.
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (ClientJob& client : clients) {
    threads.emplace_back([&client, &manager] {
      ref::ManagedCellOptions opts;
      opts.priority = client.job->priority;
      opts.threads = client.job->threads;
      opts.memory_bytes = client.job->memory_bytes;
      opts.name = client.name;
      auto outcome = ref::run_cell_managed(client.job->spec, manager, opts);
      if (!outcome.ok()) {
        client.status = outcome.status();
        return;
      }
      client.output_bytes = outcome->sut_canonical.size();
      if (!outcome->match) {
        client.status = Status::Internal("diverges from the reference");
        client.diff = outcome->diff;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  manager.drain();

  std::size_t failed = 0;
  for (const ClientJob& client : clients) {
    if (client.status.ok()) {
      std::printf("serve: PASS %-24s app=%-10s %llu output bytes\n",
                  client.name.c_str(), client.job->spec.app.c_str(),
                  (unsigned long long)client.output_bytes);
    } else {
      ++failed;
      std::printf("serve: FAIL %-24s app=%-10s %s\n", client.name.c_str(),
                  client.job->spec.app.c_str(),
                  client.status.to_string().c_str());
      if (!client.diff.empty()) std::printf("%s\n", client.diff.c_str());
    }
  }
  std::printf("serve: %llu/%llu jobs conformant\n",
              (unsigned long long)(clients.size() - failed),
              (unsigned long long)clients.size());
  if (failed != 0) {
    return Status::Internal(std::to_string(failed) + " job(s) failed");
  }
  return Status::Ok();
}

// The union of flag groups, for the command table.
std::set<std::string> flag_set(
    std::initializer_list<std::set<std::string>> groups) {
  std::set<std::string> all;
  for (const std::set<std::string>& group : groups) {
    all.insert(group.begin(), group.end());
  }
  return all;
}

// One row per subcommand: the flags it reads (Flags::parse rejects any
// other) and its body.
struct Command {
  std::string_view name;
  std::set<std::string> flags;
  Status (*run)(const Flags&);
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"wordcount",
       flag_set({kRunFlags, kClusterFlags, {"trace", "top", "budget"}}),
       cmd_wordcount},
      {"sort",
       flag_set({kRunFlags, kClusterFlags,
                 {"trace", "out", "key-bytes", "record-bytes"}}),
       cmd_sort},
      {"grep", flag_set({kRunFlags, kClusterFlags, {"trace"}}), cmd_grep},
      {"histogram",
       flag_set({kRunFlags, kClusterFlags, {"trace", "lo", "hi", "bins"}}),
       cmd_histogram},
      {"index", flag_set({kRunFlags, {"trace", "files-per-chunk"}}),
       cmd_index},
      {"kmeans", flag_set({kRunFlags, {"clusters", "dim", "iters"}}),
       cmd_kmeans},
      {"generate", {"size"}, cmd_generate},
      {"replay", {},
       [](const Flags& flags) { return cmd_replay("replay", flags); }},
      {"graph", {"spec"},
       [](const Flags& flags) { return cmd_replay("graph", flags); }},
      {"cluster", {"spec"},
       [](const Flags& flags) { return cmd_replay("cluster", flags); }},
      {"serve", {"jobs"}, cmd_serve},
  };
  return table;
}

// Prints a failed command's error; the exit code is 1 on error.
int finish(const Status& st) {
  if (st.ok()) return 0;
  std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
  return 1;
}

int run_main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  std::string command = argv[1];
  std::vector<char*> args(argv + 2, argv + argc);
  // `--replay=<file>` / `--replay <file>` in command position spell
  // `replay <file>` (repro files print this form).
  if (command.rfind("--replay", 0) == 0) {
    const std::size_t eq = command.find('=');
    if (eq != std::string::npos) args.insert(args.begin(), argv[1] + eq + 1);
    if (args.empty() || *args.front() == '\0') {
      std::fprintf(stderr, "error: --replay needs a spec file\n");
      return 2;
    }
    command = "replay";
  }
  const auto& table = commands();
  const auto cmd =
      std::find_if(table.begin(), table.end(),
                   [&](const Command& c) { return c.name == command; });
  if (cmd == table.end()) {
    usage();
    return finish(Status::InvalidArgument("unknown command: " + command));
  }
  auto flags = Flags::parse(static_cast<int>(args.size()), args.data(),
                            cmd->flags);
  if (!flags.ok()) {
    finish(flags.status());
    return 2;
  }
  return finish(cmd->run(*flags));
}

}  // namespace
}  // namespace supmr::tools

int main(int argc, char** argv) {
  return supmr::tools::run_main(argc, argv);
}
