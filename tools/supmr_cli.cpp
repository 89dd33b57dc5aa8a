// supmr — command-line front end for the SupMR runtime.
//
//   supmr wordcount <file>        [--chunk=64MB] [--threads=N] [--top=10]
//   supmr sort <file> --out=<f>   [--chunk=64MB] [--key-bytes=10]
//                                 [--record-bytes=100]
//   supmr grep <patterns> <file>  [--chunk=64MB]   (comma-separated patterns)
//   supmr histogram <file>        [--lo=0] [--hi=256] [--bins=64]
//   supmr index <file...>         [--files-per-chunk=4]
//   supmr generate <kind> <path>  --size=64MB  (kind: text | terasort |
//                                 numeric)
//   supmr replay <spec.json>      re-run a conformance-harness repro cell
//                                 (also spelled --replay=<spec.json>); exits
//                                 non-zero when the cell still diverges from
//                                 the sequential reference runtime
//   supmr serve --jobs=<spec.json>  multi-tenant mode: run every job in the
//                                 spec concurrently through one JobManager
//                                 (shared thread pool, chunk buffers, and
//                                 memory budget; docs/runtime.md). Each job
//                                 is oracle-checked against the sequential
//                                 reference; exits non-zero on any failure
//                                 or divergence
//   supmr graph --spec=<spec.json>  run a chained-app JobGraph cell (app
//                                 pmi | tfidf | msort; docs/graphs.md):
//                                 stages hand output across edges in memory
//                                 (or spill per "graph":{...}), and the
//                                 final output is byte-checked against
//                                 ref::run_graph. `supmr replay` accepts
//                                 the same specs; this spelling prints the
//                                 stage/handoff breakdown
//   supmr cluster --spec=<spec.json>  run a sharded-shuffle cell (spec with
//                                 "cluster":{"nodes":N,...}; docs/cluster.md):
//                                 N simulated worker nodes each map a slice,
//                                 hash-partition their output across the
//                                 cluster over rate-limited links, merge
//                                 their owned partitions, and the reassembled
//                                 output is byte-checked against the
//                                 sequential oracle. `supmr replay` accepts
//                                 the same specs; this spelling prints the
//                                 shuffle breakdown
//
// Common flags:
//   --mode=supmr|original|adaptive   runtime (default supmr)
//   --merge=pway|pairwise|partitioned  final merge algorithm (default pway)
//   --partitions=N                   key-space partitions for
//                                    --merge=partitioned (default 0 = auto:
//                                    one per hardware context; docs/merge.md)
//   --threads=N                      mapper/reducer threads
//   --chunk=SIZE                     ingest chunk size (0/none = original)
//   --io=read|mmap                   ingest byte movement: copying reads or
//                                    zero-copy mmap views (default read);
//                                    falls back to read per chunk under
//                                    --throttle/--fault-plan (docs/cli.md)
//   --container=default|combining    intermediate container: each app's own
//                                    choice, or the in-mapper combining
//                                    hash-aggregate (docs/containers.md).
//                                    Rejected for apps without a declared
//                                    combiner (sort, grep, kmeans,
//                                    wordcount --budget)
//   --throttle=RATE                  emulate a slow device, e.g. 384MB
//   --trace=out.csv                  dump a /proc/stat utilization trace
//   --metrics-json=out.json          dump the runtime metrics snapshot
//   --trace-out=trace.json           dump a Chrome-trace (chrome://tracing /
//                                    Perfetto) event file
//
// Fault tolerance (docs/fault-tolerance.md):
//   --retry-attempts=N               max read attempts per chunk (default 1
//                                    = fail fast; >1 enables retry)
//   --retry-backoff=DUR              initial backoff, e.g. 1ms (doubles each
//                                    retry)
//   --retry-backoff-max=DUR          backoff cap, e.g. 250ms
//   --retry-deadline=DUR             per-read wall-clock budget, e.g. 2s
//   --retry-seed=N                   jitter RNG seed
//   --fault-plan=SPEC                inject faults, e.g.
//                                    'seed=7;transient=0.05' (quote the ';')
//   --degrade                        skip poisoned chunks (with accounting)
//                                    instead of failing the job
//
// Cluster topology (docs/cluster.md; wordcount/sort/grep/histogram):
//   --nodes=N                        run through the sharded-shuffle runtime
//                                    with N simulated worker nodes
//   --node-link-bps=RATE             per-node NIC rate, e.g. 125MB (0 = fast)
//   --uplink-bps=RATE                shared uplink every cross-node byte
//                                    also pays (0 = none)
//   --node-disk-bps=RATE             per-node ingest disk rate (0 = fast)
//   --node-budget=SIZE               per-partition merge memory budget;
//                                    over-budget fixed-record partitions
//                                    spill through the ExternalSorter
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "apps/external_word_count.hpp"
#include "apps/grep.hpp"
#include "apps/kmeans.hpp"
#include "apps/histogram.hpp"
#include "apps/inverted_index.hpp"
#include "apps/tera_sort.hpp"
#include "apps/word_count.hpp"
#include "cluster/cluster_job.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "core/job.hpp"
#include "core/proc_sampler.hpp"
#include "core/replay.hpp"
#include "core/report.hpp"
#include "ref/conformance.hpp"
#include "runtime/job_manager.hpp"
#include "runtime/serve_spec.hpp"
#include "fault/fault_plan.hpp"
#include "fault/retrying_device.hpp"
#include "ingest/hybrid_source.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/fault_device.hpp"
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

const std::set<std::string> kCommonFlags = {
    "mode",   "merge",   "partitions", "threads", "chunk", "throttle", "io",
    "container",
    "trace",  "top",     "out",     "key-bytes",  "record-bytes",
    "lo",     "hi",      "bins",    "files-per-chunk", "size",
    "verbose", "json",    "budget",  "clusters",   "dim",
    "iters",  "metrics-json", "trace-out",
    "retry-attempts", "retry-backoff", "retry-backoff-max",
    "retry-deadline", "retry-seed", "fault-plan", "degrade", "jobs", "spec",
    "nodes", "node-link-bps", "uplink-bps", "node-disk-bps", "node-budget"};

void usage() {
  std::fprintf(stderr,
               "usage: supmr <command> [args] [flags]\n"
               "commands: wordcount sort grep histogram index kmeans generate"
               " replay serve graph cluster\n"
               "see tools/supmr_cli.cpp header for the full flag list\n");
}

struct CommonConfig {
  core::JobConfig job;
  std::uint64_t chunk_bytes = 64 * kMB;
  std::string mode = "supmr";
  std::optional<double> throttle_bps;
  std::optional<std::string> trace_path;
  std::optional<fault::FaultPlan> fault_plan;  // --fault-plan injection spec
  bool json = false;
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

StatusOr<CommonConfig> common_config(const Flags& flags) {
  CommonConfig cfg;
  // Enum flags parse through the shared name tables (common/enum_names.hpp)
  // — the same vocabulary the replay/serve/graph spec parsers accept.
  cfg.mode = flags.get_or("mode", "supmr");
  SUPMR_ASSIGN_OR_RETURN(cfg.job.mode, core::exec_mode_from_name(cfg.mode));
  const std::string merge = flags.get_or("merge", "pway");
  SUPMR_ASSIGN_OR_RETURN(cfg.job.merge_mode,
                         core::merge_mode_from_name(merge));
  const std::string io = flags.get_or("io", "read");
  SUPMR_ASSIGN_OR_RETURN(cfg.job.io, core::io_mode_from_name(io));
  const std::string container = flags.get_or("container", "default");
  SUPMR_ASSIGN_OR_RETURN(cfg.job.container,
                         core::container_mode_from_name(container));
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t partitions,
                         flags.get_int("partitions", 0));
  cfg.job.num_merge_partitions = partitions;
  if (partitions > 0 && merge != "partitioned") {
    return Status::InvalidArgument(
        "--partitions requires --merge=partitioned");
  }
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t threads,
                         flags.get_int("threads", 0));
  if (threads > 0) {
    cfg.job.num_map_threads = threads;
    cfg.job.num_reduce_threads = threads;
  }
  if (auto chunk = flags.get("chunk")) {
    if (*chunk == "none") {
      cfg.chunk_bytes = 0;
    } else {
      SUPMR_ASSIGN_OR_RETURN(cfg.chunk_bytes,
                             flags.get_size("chunk", cfg.chunk_bytes));
    }
  }
  if (flags.get("throttle")) {
    SUPMR_ASSIGN_OR_RETURN(std::uint64_t rate, flags.get_size("throttle", 0));
    if (rate > 0) cfg.throttle_bps = double(rate);
  }
  cfg.trace_path = flags.get("trace");
  cfg.job.metrics_json_path = flags.get_or("metrics-json", "");
  cfg.job.trace_out_path = flags.get_or("trace-out", "");
  cfg.json = flags.get_bool("json");
  if (flags.get_bool("verbose")) Logger::set_level(LogLevel::kInfo);

  // Fault tolerance: retry policy + degrade mode + injection plan.
  fault::RetryPolicy& policy = cfg.job.recovery.policy;
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t attempts,
                         flags.get_int("retry-attempts", policy.max_attempts));
  if (attempts == 0) {
    return Status::InvalidArgument("--retry-attempts must be >= 1");
  }
  policy.max_attempts = static_cast<std::uint32_t>(attempts);
  SUPMR_ASSIGN_OR_RETURN(
      policy.backoff_base_s,
      get_duration(flags, "retry-backoff", policy.backoff_base_s));
  SUPMR_ASSIGN_OR_RETURN(
      policy.backoff_max_s,
      get_duration(flags, "retry-backoff-max", policy.backoff_max_s));
  SUPMR_ASSIGN_OR_RETURN(
      policy.read_deadline_s,
      get_duration(flags, "retry-deadline", policy.read_deadline_s));
  SUPMR_ASSIGN_OR_RETURN(policy.seed,
                         flags.get_int("retry-seed", policy.seed));
  cfg.job.recovery.degrade = flags.get_bool("degrade");
  if (auto spec = flags.get("fault-plan")) {
    SUPMR_ASSIGN_OR_RETURN(cfg.fault_plan, fault::FaultPlan::parse(*spec));
  }
  if (cfg.job.recovery.degrade && !cfg.fault_plan) {
    return Status::InvalidArgument(
        "--degrade requires --fault-plan: degrade mode skips poisoned "
        "chunks, and without an injection plan there is nothing to degrade "
        "around (a real deployment's faults come from the device itself)");
  }

  // Cluster topology: --nodes routes the job through the sharded-shuffle
  // runtime (src/cluster/, docs/cluster.md). The bandwidth/budget knobs are
  // meaningless without a node count, so they hard-reject rather than
  // silently doing nothing.
  if (flags.get("nodes")) {
    SUPMR_ASSIGN_OR_RETURN(std::uint64_t nodes, flags.get_int("nodes", 0));
    if (nodes == 0) return Status::InvalidArgument("--nodes must be >= 1");
    cfg.job.num_nodes = static_cast<std::size_t>(nodes);
  }
  for (const char* knob :
       {"node-link-bps", "uplink-bps", "node-disk-bps", "node-budget"}) {
    if (flags.get(knob) && cfg.job.num_nodes == 0) {
      return Status::InvalidArgument(std::string("--") + knob +
                                     " requires --nodes");
    }
  }
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t link_bps,
                         flags.get_size("node-link-bps", 0));
  cfg.job.node_link_bps = static_cast<double>(link_bps);
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t uplink_bps,
                         flags.get_size("uplink-bps", 0));
  cfg.job.uplink_bps = static_cast<double>(uplink_bps);
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t disk_bps,
                         flags.get_size("node-disk-bps", 0));
  cfg.job.node_disk_bps = static_cast<double>(disk_bps);
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t node_budget,
                         flags.get_size("node-budget", 0));
  cfg.job.node_memory_budget = static_cast<std::size_t>(node_budget);
  return cfg;
}

// Builds the input device stack:
//   FileDevice -> [ThrottledDevice] -> [FaultDevice] -> [RetryingDevice]
// FaultDevice injects the --fault-plan; RetryingDevice (when the retry
// policy is enabled) absorbs transient faults at the read_at seam, so every
// byte source — pipeline chunks and spill reads alike — retries the same way.
StatusOr<std::shared_ptr<const storage::Device>> open_input(
    const std::string& path, const CommonConfig& cfg) {
  std::shared_ptr<const storage::Device> dev;
  if (cfg.job.io == core::IoMode::kMmap) {
    // Zero-copy base device. Any wrapper stacked below refuses to lend
    // views, so --throttle/--fault-plan/retry transparently force the
    // sources back onto the copying read path (a page fault cannot be
    // retried or rate-limited).
    SUPMR_ASSIGN_OR_RETURN(auto mapped, storage::MmapDevice::open(path));
    dev = std::move(mapped);
  } else {
    SUPMR_ASSIGN_OR_RETURN(auto file, storage::FileDevice::open(path));
    dev = std::move(file);
  }
  if (cfg.throttle_bps) {
    auto limiter = std::make_shared<storage::RateLimiter>(*cfg.throttle_bps);
    dev = std::make_shared<storage::ThrottledDevice>(dev, limiter);
  }
  if (cfg.fault_plan) {
    dev = std::make_shared<storage::FaultDevice>(dev, *cfg.fault_plan);
  }
  if (cfg.job.recovery.policy.enabled()) {
    dev = std::make_shared<fault::RetryingDevice>(dev,
                                                  cfg.job.recovery.policy);
  }
  return dev;
}

// Where a subcommand's human-readable lines go: stderr under --json, so
// stdout carries exactly one JSON document.
std::FILE* human_out(const CommonConfig& cfg) {
  return cfg.json ? stderr : stdout;
}

// Under --json a failed run still leaves one document on stdout: the error
// report.
Status report_failure(const CommonConfig& cfg, const Status& status) {
  if (cfg.json) std::printf("%s\n", core::status_to_json(status).c_str());
  return status;
}

// Runs `app` over `source` honoring --mode; prints the phase row.
StatusOr<core::JobResult> run_app(core::Application& app,
                                  const ingest::IngestSource& source,
                                  const CommonConfig& cfg) {
  // Container selection before init: apps without a combiner reject
  // --container=combining here instead of silently falling back.
  SUPMR_RETURN_IF_ERROR(app.use_container(cfg.job.container));
  core::MapReduceJob job(app, source, cfg.job);
  core::ProcStatSampler sampler(0.1);
  const bool tracing =
      cfg.trace_path.has_value() && core::ProcStatSampler::available();
  if (tracing) sampler.start();

  // --chunk=none/0 degenerates to the original one-shot ingest even when
  // --mode asked for a pipelined runtime (there is nothing to pipeline).
  core::ExecMode mode = cfg.job.mode;
  if (cfg.chunk_bytes == 0) mode = core::ExecMode::kOriginal;
  StatusOr<core::JobResult> result = job.run(mode);
  if (tracing) {
    TimeSeries trace = sampler.stop();
    trace.write_csv(*cfg.trace_path);
    std::fprintf(human_out(cfg), "utilization trace (%zu samples) -> %s\n",
                 trace.samples(), cfg.trace_path->c_str());
  }
  if (!result.ok()) return report_failure(cfg, result.status());
  if (cfg.json) {
    std::printf("%s\n", core::job_result_to_json(*result).c_str());
    return result;
  }
  std::printf("%s\n%s\n", PhaseBreakdown::table_header().c_str(),
              result->phases.to_table_row(cfg.mode).c_str());
  std::printf("chunks=%llu map_rounds=%llu merge_rounds=%llu results=%llu\n",
              (unsigned long long)result->chunks,
              (unsigned long long)result->map_rounds,
              (unsigned long long)result->phases.merge_rounds,
              (unsigned long long)result->result_count);
  return result;
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

// The --json report of a --nodes run: totals, then each node's bytes.
std::string cluster_result_to_json(const cluster::ClusterResult& result) {
  JsonWriter w;
  w.begin_object();
  w.kv("elapsed_s", result.elapsed_s);
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
    w.kv("spill_runs", node.spill_runs);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

// Cluster execution path for the single-device app subcommands: --nodes=N
// slurps the input and runs it through the sharded-shuffle runtime
// (docs/cluster.md) instead of one MapReduceJob, then prints the shuffle
// accounting (with --json, as cluster_result_to_json). The product is the
// reassembled global output (identical to the single-node run byte for
// byte), so app-specific result printing does not apply here.
StatusOr<cluster::ClusterResult> run_cluster_cli(
    const std::string& path,
    std::shared_ptr<const ingest::RecordFormat> format,
    cluster::AppFactory make_app, const CommonConfig& cfg,
    std::size_t record_bytes) {
  if (cfg.fault_plan || cfg.job.recovery.degrade) {
    return Status::InvalidArgument(
        "--nodes does not combine with --fault-plan/--degrade (node slices "
        "are private in-memory devices)");
  }
  if (cfg.throttle_bps) {
    return Status::InvalidArgument(
        "--nodes does not combine with --throttle: model per-node ingest "
        "disks with --node-disk-bps instead");
  }
  cluster::ClusterJob job;
  SUPMR_ASSIGN_OR_RETURN(job.input, slurp(path));
  job.format = std::move(format);
  job.make_app = std::move(make_app);
  job.config = cfg.job;
  job.chunk_bytes = cfg.chunk_bytes;
  job.record_bytes = record_bytes;
  if (cfg.job.node_memory_budget > 0) {
    job.spill_dir = "/tmp/supmr_cluster_" + std::to_string(::getpid());
    ::mkdir(job.spill_dir.c_str(), 0777);  // best effort; the sorter reports
  }
  StatusOr<cluster::ClusterResult> result = cluster::run_cluster(job);
  if (!result.ok()) return report_failure(cfg, result.status());
  std::FILE* out = human_out(cfg);
  std::fprintf(out, "cluster: %zu node(s), map output %s, shuffled %s "
               "cross-node, %s stayed local\n",
               result->nodes.size(),
               format_bytes(result->map_output_bytes).c_str(),
               format_bytes(result->shuffle_bytes).c_str(),
               format_bytes(result->local_bytes).c_str());
  for (std::size_t i = 0; i < result->nodes.size(); ++i) {
    const cluster::NodeStats& node = result->nodes[i];
    std::fprintf(out, "  node %zu: in %s, map-out %s, sent %s, recv %s"
                 "%s%s\n",
                 i, format_bytes(node.input_bytes).c_str(),
                 format_bytes(node.map_output_bytes).c_str(),
                 format_bytes(node.sent_bytes).c_str(),
                 format_bytes(node.recv_bytes).c_str(),
                 node.spill_runs > 0 ? ", spill runs " : "",
                 node.spill_runs > 0
                     ? std::to_string(node.spill_runs).c_str()
                     : "");
  }
  std::fprintf(out, "cluster: %s output in %.3fs\n",
               format_bytes(result->output.size()).c_str(),
               result->elapsed_s);
  if (cfg.json) std::printf("%s\n", cluster_result_to_json(*result).c_str());
  return result;
}

// ----------------------------------------------------------- subcommands

Status cmd_wordcount(const Flags& flags) {
  if (flags.positional().empty()) {
    return Status::InvalidArgument("wordcount needs an input file");
  }
  SUPMR_ASSIGN_OR_RETURN(CommonConfig cfg, common_config(flags));
  // --budget=SIZE switches to external aggregation (spill-and-merge) so the
  // intermediate set never exceeds the budget.
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t budget, flags.get_size("budget", 0));
  if (cfg.job.num_nodes > 0) {
    return run_cluster_cli(
               flags.positional()[0], std::make_shared<ingest::LineFormat>(),
               [budget]() -> std::unique_ptr<core::Application> {
                 if (budget > 0) {
                   containers::SpillingHashContainer::Options opt;
                   opt.memory_budget_bytes = budget;
                   return std::make_unique<apps::ExternalWordCountApp>(opt);
                 }
                 return std::make_unique<apps::WordCountApp>();
               },
               cfg, 0)
        .status();
  }
  SUPMR_ASSIGN_OR_RETURN(auto dev, open_input(flags.positional()[0], cfg));
  auto format = std::make_shared<ingest::LineFormat>();
  ingest::SingleDeviceSource source(dev, format, cfg.chunk_bytes,
                                    cfg.job.io);
  std::vector<std::pair<std::string, std::uint64_t>> words;
  if (budget > 0) {
    containers::SpillingHashContainer::Options opt;
    opt.memory_budget_bytes = budget;
    apps::ExternalWordCountApp app(opt);
    SUPMR_ASSIGN_OR_RETURN(core::JobResult result, run_app(app, source, cfg));
    (void)result;
    std::fprintf(human_out(cfg), "spilled runs: %zu\n", app.runs_spilled());
    words = app.results();
  } else {
    apps::WordCountApp app;
    SUPMR_ASSIGN_OR_RETURN(core::JobResult result, run_app(app, source, cfg));
    (void)result;
    words = app.results();
  }
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t top, flags.get_int("top", 10));
  const std::size_t n = std::min<std::size_t>(top, words.size());
  std::partial_sort(words.begin(), words.begin() + n, words.end(),
                    [](const auto& a, const auto& b) {
                      return a.second > b.second;
                    });
  for (std::size_t i = 0; i < n; ++i)
    std::fprintf(human_out(cfg), "%10llu  %s\n",
                 (unsigned long long)words[i].second, words[i].first.c_str());
  return Status::Ok();
}

Status cmd_sort(const Flags& flags) {
  if (flags.positional().empty()) {
    return Status::InvalidArgument("sort needs an input file");
  }
  SUPMR_ASSIGN_OR_RETURN(CommonConfig cfg, common_config(flags));
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t key_bytes,
                         flags.get_int("key-bytes", 10));
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t record_bytes,
                         flags.get_int("record-bytes", 100));
  SUPMR_RETURN_IF_ERROR(core::check_sort_geometry(
      key_bytes, record_bytes, "--key-bytes", "--record-bytes"));
  apps::TeraSortOptions opt;
  opt.key_bytes = static_cast<std::uint32_t>(key_bytes);
  opt.record_bytes = static_cast<std::uint32_t>(record_bytes);
  if (cfg.job.merge_mode == core::MergeMode::kPartitioned) {
    // Map-time partitioned shuffle: records land in key-range stripes as
    // they are mapped, so the merge phase is P independent merges.
    opt.partitions = cfg.job.merge_partitions();
  }
  if (cfg.job.num_nodes > 0) {
    SUPMR_ASSIGN_OR_RETURN(
        cluster::ClusterResult result,
        run_cluster_cli(flags.positional()[0],
                        std::make_shared<ingest::CrlfFormat>(),
                        [opt] { return std::make_unique<apps::TeraSortApp>(
                                    opt); },
                        cfg, static_cast<std::size_t>(record_bytes)));
    if (auto out = flags.get("out")) {
      std::FILE* f = std::fopen(out->c_str(), "wb");
      if (f == nullptr) return Status::IoError("cannot create " + *out);
      const bool ok = std::fwrite(result.output.data(), 1,
                                  result.output.size(),
                                  f) == result.output.size();
      std::fclose(f);
      if (!ok) return Status::IoError("short write to " + *out);
      std::fprintf(human_out(cfg), "sorted output (%s) -> %s\n",
                   format_bytes(result.output.size()).c_str(), out->c_str());
    }
    return Status::Ok();
  }
  SUPMR_ASSIGN_OR_RETURN(auto dev, open_input(flags.positional()[0], cfg));
  auto format = std::make_shared<ingest::CrlfFormat>();
  ingest::SingleDeviceSource source(dev, format, cfg.chunk_bytes,
                                    cfg.job.io);
  apps::TeraSortApp app(opt);
  SUPMR_ASSIGN_OR_RETURN(core::JobResult result, run_app(app, source, cfg));
  (void)result;
  if (app.malformed_records() > 0) {
    std::fprintf(human_out(cfg), "warning: %llu malformed records\n",
                 (unsigned long long)app.malformed_records());
  }
  if (auto out = flags.get("out")) {
    std::FILE* f = std::fopen(out->c_str(), "wb");
    if (f == nullptr) return Status::IoError("cannot create " + *out);
    const std::string_view sorted = app.sorted_data();
    const bool ok =
        std::fwrite(sorted.data(), 1, sorted.size(), f) == sorted.size();
    std::fclose(f);
    if (!ok) return Status::IoError("short write to " + *out);
    std::fprintf(human_out(cfg), "sorted output (%s) -> %s\n",
                 format_bytes(sorted.size()).c_str(), out->c_str());
  }
  return Status::Ok();
}

Status cmd_grep(const Flags& flags) {
  if (flags.positional().size() < 2) {
    return Status::InvalidArgument("grep needs <patterns> <file>");
  }
  SUPMR_ASSIGN_OR_RETURN(CommonConfig cfg, common_config(flags));
  const std::vector<std::string> patterns =
      apps::split_patterns(flags.positional()[0]);
  if (cfg.job.num_nodes > 0) {
    return run_cluster_cli(
               flags.positional()[1], std::make_shared<ingest::LineFormat>(),
               [patterns] {
                 return std::make_unique<apps::GrepApp>(patterns);
               },
               cfg, 0)
        .status();
  }
  SUPMR_ASSIGN_OR_RETURN(auto dev, open_input(flags.positional()[1], cfg));
  auto format = std::make_shared<ingest::LineFormat>();
  ingest::SingleDeviceSource source(dev, format, cfg.chunk_bytes,
                                    cfg.job.io);
  apps::GrepApp app(patterns);
  SUPMR_ASSIGN_OR_RETURN(core::JobResult result, run_app(app, source, cfg));
  (void)result;
  for (const auto& [pattern, hits] : app.results())
    std::fprintf(human_out(cfg), "%10llu  %s\n", (unsigned long long)hits,
                 pattern.c_str());
  std::fprintf(human_out(cfg), "lines scanned: %llu\n",
               (unsigned long long)app.lines_scanned());
  return Status::Ok();
}

Status cmd_histogram(const Flags& flags) {
  if (flags.positional().empty()) {
    return Status::InvalidArgument("histogram needs an input file");
  }
  SUPMR_ASSIGN_OR_RETURN(CommonConfig cfg, common_config(flags));
  apps::HistogramOptions opt;
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t lo, flags.get_int("lo", 0));
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t hi, flags.get_int("hi", 256));
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t bins, flags.get_int("bins", 32));
  opt.lo = static_cast<std::int64_t>(lo);
  opt.hi = static_cast<std::int64_t>(hi);
  opt.bins = bins;
  if (cfg.job.num_nodes > 0) {
    return run_cluster_cli(
               flags.positional()[0], std::make_shared<ingest::LineFormat>(),
               [opt] { return std::make_unique<apps::HistogramApp>(opt); },
               cfg, 0)
        .status();
  }
  SUPMR_ASSIGN_OR_RETURN(auto dev, open_input(flags.positional()[0], cfg));
  auto format = std::make_shared<ingest::LineFormat>();
  ingest::SingleDeviceSource source(dev, format, cfg.chunk_bytes,
                                    cfg.job.io);
  apps::HistogramApp app(opt);
  SUPMR_ASSIGN_OR_RETURN(core::JobResult result, run_app(app, source, cfg));
  (void)result;
  std::uint64_t peak = 1;
  for (auto c : app.counts()) peak = std::max(peak, c);
  for (std::size_t b = 0; b < app.counts().size(); ++b) {
    const int bar = int(double(app.counts()[b]) / double(peak) * 50.0);
    std::fprintf(human_out(cfg), "[%6lld,%6lld) %10llu |%.*s\n",
                 (long long)(opt.lo + (opt.hi - opt.lo) * (long long)b /
                                          (long long)opt.bins),
                 (long long)(opt.lo + (opt.hi - opt.lo) * (long long)(b + 1) /
                                          (long long)opt.bins),
                 (unsigned long long)app.counts()[b], bar,
                 "##################################################");
  }
  std::fprintf(human_out(cfg), "parsed=%llu out-of-range=%llu\n",
               (unsigned long long)app.values_parsed(),
               (unsigned long long)app.values_out_of_range());
  return Status::Ok();
}

Status cmd_index(const Flags& flags) {
  if (flags.positional().empty()) {
    return Status::InvalidArgument("index needs input files");
  }
  SUPMR_ASSIGN_OR_RETURN(CommonConfig cfg, common_config(flags));
  std::vector<std::shared_ptr<const storage::Device>> files;
  for (const auto& path : flags.positional()) {
    SUPMR_ASSIGN_OR_RETURN(auto dev, open_input(path, cfg));
    files.push_back(std::move(dev));
  }
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t per_chunk,
                         flags.get_int("files-per-chunk", 4));
  ingest::MultiFileSource source(files, per_chunk, cfg.job.io);
  apps::InvertedIndexApp app;
  SUPMR_ASSIGN_OR_RETURN(core::JobResult result, run_app(app, source, cfg));
  (void)result;
  std::fprintf(human_out(cfg), "%llu words indexed across %zu files\n",
               (unsigned long long)app.index().size(), files.size());
  return Status::Ok();
}

Status cmd_kmeans(const Flags& flags) {
  if (flags.positional().empty()) {
    return Status::InvalidArgument("kmeans needs an input points file");
  }
  SUPMR_ASSIGN_OR_RETURN(CommonConfig cfg, common_config(flags));
  if (cfg.job.container != core::ContainerMode::kDefault) {
    // run_kmeans owns its apps internally, so the run_app seam never sees
    // them — reject here with the same vocabulary.
    return Status::InvalidArgument(
        "container=" +
        std::string(core::container_mode_name(cfg.job.container)) +
        ": this application declares no combiner");
  }
  SUPMR_ASSIGN_OR_RETURN(auto dev, open_input(flags.positional()[0], cfg));
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t clusters,
                         flags.get_int("clusters", 4));
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t dim, flags.get_int("dim", 2));
  SUPMR_ASSIGN_OR_RETURN(std::uint64_t iters, flags.get_int("iters", 30));
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
  ingest::SingleDeviceSource source(dev, std::make_shared<ingest::LineFormat>(),
                                    cfg.chunk_bytes, cfg.job.io);
  auto result =
      apps::run_kmeans(source, cfg.job, opt, std::move(init), iters, 1e-6);
  if (!result.ok()) return report_failure(cfg, result.status());
  std::FILE* out = human_out(cfg);
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
  if (cfg.json) {
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
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return Status::IoError("cannot create " + path);
    const std::string data = wload::generate_points(cfg);
    const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
    std::fclose(f);
    if (!ok) return Status::IoError("short write");
  } else if (kind == "numeric") {
    wload::NumericConfig cfg;
    cfg.num_values = size / 4;  // ~4 bytes per line
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return Status::IoError("cannot create " + path);
    const std::string data = wload::generate_numeric(cfg);
    const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
    std::fclose(f);
    if (!ok) return Status::IoError("short write");
  } else {
    return Status::InvalidArgument("unknown dataset kind: " + kind);
  }
  std::printf("generated %s dataset (~%s) -> %s\n", kind.c_str(),
              format_bytes(size).c_str(), path.c_str());
  return Status::Ok();
}

// Re-runs one conformance cell from a harness-written repro spec
// (docs/testing.md). Non-zero exit iff the cell still diverges, so CI and
// bisect scripts can drive it directly.
Status cmd_replay(const std::string& path) {
  SUPMR_ASSIGN_OR_RETURN(std::string text, slurp(path));
  SUPMR_ASSIGN_OR_RETURN(core::ReplaySpec spec,
                         core::ReplaySpec::from_json(text));
  std::printf("replay: app=%s corpus=%s/%llu seed=%llu mode=%s merge=%s "
              "io=%s container=%s threads=%llu chunk=%llu partitions=%llu "
              "degrade=%d fault-plan=%s\n",
              spec.app.c_str(), spec.corpus.kind.c_str(),
              (unsigned long long)spec.corpus.bytes,
              (unsigned long long)spec.corpus.seed,
              std::string(core::exec_mode_name(spec.mode)).c_str(),
              std::string(core::merge_mode_name(spec.merge_mode)).c_str(),
              std::string(core::io_mode_name(spec.io)).c_str(),
              std::string(core::container_mode_name(spec.container)).c_str(),
              (unsigned long long)spec.threads,
              (unsigned long long)spec.chunk_bytes,
              (unsigned long long)spec.merge_partitions,
              spec.degrade ? 1 : 0,
              spec.fault_plan.empty() ? "none" : spec.fault_plan.c_str());
  SUPMR_ASSIGN_OR_RETURN(ref::ConformanceOutcome outcome,
                         ref::run_cell(spec));
  if (outcome.match) {
    std::printf("conformance: PASS (%llu output bytes, %llu chunks, "
                "%llu skipped)\n",
                (unsigned long long)outcome.sut_canonical.size(),
                (unsigned long long)outcome.job.chunks,
                (unsigned long long)outcome.job.chunks_skipped);
    return Status::Ok();
  }
  std::printf("conformance: FAIL\n%s\n", outcome.diff.c_str());
  return Status::Internal("replayed cell diverges from the reference");
}

// Runs a chained-app (JobGraph) conformance cell from a spec file
// (docs/graphs.md): executes the spec's multi-stage graph with the spec's
// handoff policy, byte-checks the sink against the sequential graph oracle,
// and prints the per-stage and handoff accounting. Non-zero exit iff the
// graph diverges or fails.
Status cmd_graph(const Flags& flags) {
  std::string path = flags.get_or("spec", "");
  if (path.empty() && !flags.positional().empty()) {
    path = flags.positional()[0];
  }
  if (path.empty()) {
    return Status::InvalidArgument("graph needs --spec=<spec.json>");
  }
  SUPMR_ASSIGN_OR_RETURN(std::string text, slurp(path));
  SUPMR_ASSIGN_OR_RETURN(core::ReplaySpec spec,
                         core::ReplaySpec::from_json(text));
  if (!spec.is_graph()) {
    return Status::InvalidArgument(
        "graph needs a chained app (pmi | tfidf | msort), got: " + spec.app);
  }
  std::printf("graph: app=%s corpus=%s/%llu seed=%llu mode=%s merge=%s "
              "io=%s threads=%llu chunk=%llu handoff=%s budget=%llu\n",
              spec.app.c_str(), spec.corpus.kind.c_str(),
              (unsigned long long)spec.corpus.bytes,
              (unsigned long long)spec.corpus.seed,
              std::string(core::exec_mode_name(spec.mode)).c_str(),
              std::string(core::merge_mode_name(spec.merge_mode)).c_str(),
              std::string(core::io_mode_name(spec.io)).c_str(),
              (unsigned long long)spec.threads,
              (unsigned long long)spec.chunk_bytes,
              std::string(core::graph_handoff_name(spec.graph_handoff))
                  .c_str(),
              (unsigned long long)spec.graph_budget);
  SUPMR_ASSIGN_OR_RETURN(ref::ConformanceOutcome outcome,
                         ref::run_cell(spec));
  std::printf("graph: %llu stages, handoff %llu bytes in memory, "
              "spilled %llu bytes across %llu file(s)\n",
              (unsigned long long)outcome.graph_stages,
              (unsigned long long)outcome.graph_handoff_bytes,
              (unsigned long long)outcome.graph_spill_bytes,
              (unsigned long long)outcome.graph_spill_files);
  if (outcome.match) {
    std::printf("conformance: PASS (%llu output bytes)\n",
                (unsigned long long)outcome.sut_canonical.size());
    return Status::Ok();
  }
  std::printf("conformance: FAIL\n%s\n", outcome.diff.c_str());
  return Status::Internal("graph cell diverges from the reference");
}

// Runs a sharded-shuffle conformance cell from a spec file (docs/cluster.md):
// executes the spec through the cluster runtime, byte-checks the
// reassembled output against the sequential oracle, and prints the shuffle
// accounting. Non-zero exit iff the cell diverges or fails.
Status cmd_cluster(const Flags& flags) {
  std::string path = flags.get_or("spec", "");
  if (path.empty() && !flags.positional().empty()) {
    path = flags.positional()[0];
  }
  if (path.empty()) {
    return Status::InvalidArgument("cluster needs --spec=<spec.json>");
  }
  SUPMR_ASSIGN_OR_RETURN(std::string text, slurp(path));
  SUPMR_ASSIGN_OR_RETURN(core::ReplaySpec spec,
                         core::ReplaySpec::from_json(text));
  if (!spec.is_cluster()) {
    return Status::InvalidArgument(
        "cluster needs a spec with cluster.nodes >= 1 (app " + spec.app +
        ", nodes=0)");
  }
  std::printf("cluster: app=%s corpus=%s/%llu seed=%llu mode=%s merge=%s "
              "io=%s threads=%llu chunk=%llu nodes=%llu link=%llu "
              "uplink=%llu disk=%llu budget=%llu\n",
              spec.app.c_str(), spec.corpus.kind.c_str(),
              (unsigned long long)spec.corpus.bytes,
              (unsigned long long)spec.corpus.seed,
              std::string(core::exec_mode_name(spec.mode)).c_str(),
              std::string(core::merge_mode_name(spec.merge_mode)).c_str(),
              std::string(core::io_mode_name(spec.io)).c_str(),
              (unsigned long long)spec.threads,
              (unsigned long long)spec.chunk_bytes,
              (unsigned long long)spec.cluster_nodes,
              (unsigned long long)spec.cluster_link_bps,
              (unsigned long long)spec.cluster_uplink_bps,
              (unsigned long long)spec.cluster_disk_bps,
              (unsigned long long)spec.cluster_budget);
  SUPMR_ASSIGN_OR_RETURN(ref::ConformanceOutcome outcome,
                         ref::run_cell(spec));
  std::printf("cluster: %llu node(s), map output %llu bytes, %llu shuffled "
              "cross-node, %llu local, %llu spill run(s), owned max/min "
              "%llu/%llu bytes\n",
              (unsigned long long)outcome.cluster_nodes,
              (unsigned long long)outcome.cluster_map_output_bytes,
              (unsigned long long)outcome.cluster_shuffle_bytes,
              (unsigned long long)outcome.cluster_local_bytes,
              (unsigned long long)outcome.cluster_spill_runs,
              (unsigned long long)outcome.cluster_recv_max_bytes,
              (unsigned long long)outcome.cluster_recv_min_bytes);
  if (outcome.match) {
    std::printf("conformance: PASS (%llu output bytes)\n",
                (unsigned long long)outcome.sut_canonical.size());
    return Status::Ok();
  }
  std::printf("conformance: FAIL\n%s\n", outcome.diff.c_str());
  return Status::Internal("cluster cell diverges from the reference");
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

int run_main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  std::string command = argv[1];
  // `--replay=<file>` / `--replay <file>` are accepted in command position
  // as aliases for the replay subcommand (repro files print this form).
  if (command.rfind("--replay", 0) == 0) {
    std::string file;
    const std::size_t eq = command.find('=');
    if (eq != std::string::npos) {
      file = command.substr(eq + 1);
    } else if (argc >= 3) {
      file = argv[2];
    }
    if (file.empty()) {
      std::fprintf(stderr, "error: --replay needs a spec file\n");
      return 2;
    }
    const Status st = cmd_replay(file);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
      return 1;
    }
    return 0;
  }
  auto flags_or = Flags::parse(argc - 2, argv + 2, kCommonFlags);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 flags_or.status().to_string().c_str());
    return 2;
  }
  const Flags& flags = *flags_or;

  Status st = Status::InvalidArgument("unknown command: " + command);
  if (command == "wordcount") st = cmd_wordcount(flags);
  else if (command == "kmeans") st = cmd_kmeans(flags);
  else if (command == "sort") st = cmd_sort(flags);
  else if (command == "grep") st = cmd_grep(flags);
  else if (command == "histogram") st = cmd_histogram(flags);
  else if (command == "index") st = cmd_index(flags);
  else if (command == "generate") st = cmd_generate(flags);
  else if (command == "replay") {
    if (flags.positional().empty()) {
      st = Status::InvalidArgument("replay needs a spec file");
    } else {
      st = cmd_replay(flags.positional()[0]);
    }
  }
  else if (command == "serve") st = cmd_serve(flags);
  else if (command == "graph") st = cmd_graph(flags);
  else if (command == "cluster") st = cmd_cluster(flags);
  else usage();

  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace supmr::tools

int main(int argc, char** argv) {
  return supmr::tools::run_main(argc, argv);
}
