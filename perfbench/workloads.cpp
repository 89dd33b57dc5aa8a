#include "workloads.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>

#include "apps/chains.hpp"
#include "apps/tera_sort.hpp"
#include "apps/word_count.hpp"
#include "cluster/cluster_job.hpp"
#include "core/job.hpp"
#include "graph/job_graph.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "ref/conformance.hpp"
#include "ref/ref_graph.hpp"
#include "ref/ref_job.hpp"
#include "storage/mem_device.hpp"
#include "traced.hpp"
#include "wload/teragen.hpp"
#include "wload/text_corpus.hpp"

namespace supmr::perfbench {
namespace {

namespace sn = span_name;

constexpr std::uint64_t kMiB = 1 << 20;
// Every workload runs 4 mapper threads and keeps the runtime's defaults:
// mode=supmr, merge=pway, io=read, container=default.
constexpr std::size_t kThreads = 4;

core::JobConfig default_config(std::size_t threads) {
  core::JobConfig cfg;
  cfg.mode = core::ExecMode::kIngestMR;
  cfg.merge_mode = core::MergeMode::kPWay;
  cfg.io = core::IoMode::kRead;
  cfg.num_map_threads = threads;
  cfg.num_reduce_threads = threads;
  return cfg;
}

// VmRSS or VmHWM from /proc/self/status, in bytes (0 if unreadable).
std::uint64_t status_bytes(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::strtoull(line + len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// Wall, CPU and peak-RSS meter around one public call. The peak is VmHWM
// after the call, reset through /proc/self/clear_refs before it, above the
// resident set before it. Free heap memory goes back to the kernel first, so
// every job starts from the same allocator state instead of reusing what
// the previous job left resident.
class Meter {
 public:
  void start() {
    malloc_trim(0);
    const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
    if (fd >= 0) {
      reset_ok_ = ::write(fd, "5", 1) == 1;
      ::close(fd);
    }
    rss0_ = status_bytes("VmRSS");
    cpu0_ = cpu_seconds();
    t0_ = std::chrono::steady_clock::now();
  }

  void stop(JobOutcome& out) const {
    out.job_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0_)
                    .count();
    out.cpu_s = cpu_seconds() - cpu0_;
    const std::uint64_t hwm = status_bytes("VmHWM");
    out.peak_rss_mb = reset_ok_ && hwm > rss0_
                          ? static_cast<double>(hwm - rss0_) / kMiB
                          : 0.0;
    if (!reset_ok_) out.error = "cannot reset VmHWM via /proc/self/clear_refs";
  }

 private:
  bool reset_ok_ = false;
  std::uint64_t rss0_ = 0;
  double cpu0_ = 0.0;
  std::chrono::steady_clock::time_point t0_;
};

void add_job_facts(const core::JobResult& r, JobFacts& f) {
  f.keys += r.result_count;
  f.merge_rounds += r.merge_stats.num_rounds();
  f.chunks += r.chunks;
}

// Sets out.ok from the output check, keeping an earlier error.
void check_output(const std::string& output, const std::string& oracle,
                  JobOutcome& out) {
  if (!out.error.empty()) return;
  if (output != oracle) {
    out.error = "output differs from the oracle: " +
                ref::diff_summary(output, oracle);
    return;
  }
  out.ok = true;
}

// wordcount and terasort: one MapReduceJob over one in-memory device. The
// canonical encoding runs after the timer: the job's result is the app's
// merged container.
class SingleJobWorkload : public Workload {
 public:
  std::size_t width() const override { return kThreads; }

  JobOutcome run(SpanLog* log, int job) override {
    JobOutcome out;
    const SpanContext ctx{job, -1, -1};
    std::unique_ptr<core::Application> app = make_app();
    std::optional<TracedSource> traced_source;
    if (log != nullptr) {
      app = std::make_unique<TracedApp>(std::move(app), *log, ctx);
      traced_source.emplace(*source_, *log, ctx);
    }
    const ingest::IngestSource& source =
        traced_source ? static_cast<const ingest::IngestSource&>(*traced_source)
                      : *source_;
    const core::JobConfig cfg = default_config(kThreads);
    core::MapReduceJob mr(*app, source, cfg);
    StatusOr<core::JobResult> result = Status::Internal("job not run");
    Meter meter;
    meter.start();
    {
      std::optional<ScopedSpan> span;
      if (log != nullptr) span.emplace(*log, sn::kJob, ctx);
      result = mr.run(cfg.mode);
    }
    meter.stop(out);
    if (!result.ok()) {
      out.error = result.status().to_string();
      return out;
    }
    add_job_facts(*result, out.facts);
    check_output(app->canonical_output(), oracle_, out);
    return out;
  }

 protected:
  virtual std::unique_ptr<core::Application> make_app() const = 0;

  // Holds `data` as the job's device and computes the oracle output with a
  // whole-input source.
  Status set_input(std::string data,
                   std::shared_ptr<const ingest::RecordFormat> format) {
    auto device =
        std::make_shared<storage::MemDevice>(std::move(data), "perfbench");
    source_ = std::make_unique<ingest::SingleDeviceSource>(
        device, format, chunk_bytes_, core::IoMode::kRead);
    ingest::SingleDeviceSource whole(device, format, 0);
    std::unique_ptr<core::Application> ref_app = make_app();
    SUPMR_ASSIGN_OR_RETURN(ref::RefResult ref, ref::run_ref(*ref_app, whole));
    oracle_ = std::move(ref.canonical);
    return Status::Ok();
  }

  std::uint64_t chunk_bytes_ = 16 * kMiB;
  std::unique_ptr<ingest::SingleDeviceSource> source_;
  std::string oracle_;
};

// Map-bound: tokenize + hash emit over Zipf text.
class WordCountWorkload final : public SingleJobWorkload {
 public:
  Status prepare(std::uint64_t seed) override {
    wload::TextCorpusConfig cfg;
    cfg.total_bytes = kBytes;
    cfg.vocabulary = 10000;
    cfg.seed = seed;
    seed_ = seed;
    return set_input(wload::generate_text(cfg),
                     std::make_shared<ingest::LineFormat>());
  }

  void describe(JsonWriter& w) const override {
    w.kv("corpus", "zipf text, 10000-word vocabulary, skew 1.0");
    w.kv("seed", seed_);
    w.kv("input_bytes", source_ ? source_->total_bytes() : 0);
    w.kv("chunk_bytes", chunk_bytes_);
    w.kv("threads", std::uint64_t{kThreads});
  }

 private:
  static constexpr std::uint64_t kBytes = 64 * kMiB;

  std::unique_ptr<core::Application> make_app() const override {
    return std::make_unique<apps::WordCountApp>();
  }

  std::uint64_t seed_ = 0;
};

apps::TeraSortOptions tera_options() {
  apps::TeraSortOptions opt;
  opt.key_bytes = 10;
  opt.record_bytes = 100;
  return opt;
}

std::string teragen(std::uint64_t records, std::uint64_t seed) {
  wload::TeraGenConfig cfg;
  cfg.num_records = records;
  cfg.key_bytes = 10;
  cfg.record_bytes = 100;
  cfg.seed = seed;
  return wload::teragen_to_string(cfg);
}

// Merge- and claim-bound: fixed 100-byte records, map copies them.
class TeraSortWorkload final : public SingleJobWorkload {
 public:
  Status prepare(std::uint64_t seed) override {
    seed_ = seed;
    return set_input(teragen(kRecords, seed),
                     std::make_shared<ingest::CrlfFormat>());
  }

  void describe(JsonWriter& w) const override {
    w.kv("corpus", "teragen, 10-byte keys, 100-byte CRLF records");
    w.kv("seed", seed_);
    w.kv("records", kRecords);
    w.kv("input_bytes", source_ ? source_->total_bytes() : 0);
    w.kv("chunk_bytes", chunk_bytes_);
    w.kv("threads", std::uint64_t{kThreads});
  }

 private:
  static constexpr std::uint64_t kRecords = 1000000;

  std::unique_ptr<core::Application> make_app() const override {
    return std::make_unique<apps::TeraSortApp>(tera_options());
  }

  std::uint64_t seed_ = 0;
};

// The 3-stage PMI chain through graph::run_graph with in-memory handoff.
class PmiWorkload final : public Workload {
 public:
  std::size_t width() const override { return kThreads; }

  Status prepare(std::uint64_t seed) override {
    seed_ = seed;
    wload::TextCorpusConfig text;
    text.total_bytes = kBytes;
    text.seed = seed;
    apps::ChainInputs inputs;
    inputs.device = std::make_shared<storage::MemDevice>(
        wload::generate_text(text), "perfbench");
    input_bytes_ = inputs.device->size();
    core::ReplaySpec spec;
    spec.app = "pmi";
    spec.mode = core::ExecMode::kIngestMR;
    spec.merge_mode = core::MergeMode::kPWay;
    spec.io = core::IoMode::kRead;
    spec.threads = kThreads;
    spec.chunk_bytes = kChunkBytes;
    SUPMR_ASSIGN_OR_RETURN(graph_, apps::make_chain(spec, inputs));
    SUPMR_ASSIGN_OR_RETURN(ref::GraphRefResult ref, ref::run_graph(graph_));
    oracle_ = std::move(ref.canonical);
    return Status::Ok();
  }

  JobOutcome run(SpanLog* log, int job) override {
    JobOutcome out;
    std::optional<graph::JobGraph> traced;
    if (log != nullptr) {
      auto g = traced_graph(graph_, *log, job);
      if (!g.ok()) {
        out.error = g.status().to_string();
        return out;
      }
      traced.emplace(std::move(g).value());
    }
    const graph::StageRunner runner =
        log != nullptr ? traced_stage_runner(*log, job) : graph::StageRunner{};
    StatusOr<graph::GraphResult> result = Status::Internal("graph not run");
    Meter meter;
    meter.start();
    {
      std::optional<ScopedSpan> span;
      if (log != nullptr) span.emplace(*log, sn::kGraphRun, SpanContext{job});
      result = graph::run_graph(traced ? *traced : graph_, {}, runner);
    }
    meter.stop(out);
    if (!result.ok()) {
      out.error = result.status().to_string();
      return out;
    }
    for (const graph::StageResult& stage : result->stages) {
      add_job_facts(stage.job, out.facts);
    }
    out.facts.handoff_bytes = result->handoff_bytes;
    check_output(result->final_output, oracle_, out);
    return out;
  }

  void describe(JsonWriter& w) const override {
    w.kv("corpus", "zipf text, 10000-word vocabulary, skew 1.0");
    w.kv("seed", seed_);
    w.kv("input_bytes", input_bytes_);
    w.kv("chunk_bytes", kChunkBytes);
    w.kv("threads", std::uint64_t{kThreads});
    w.kv("stages", "wordcount + paircount -> pmi, in-memory handoff");
  }

 private:
  static constexpr std::uint64_t kBytes = 2 * kMiB;
  static constexpr std::uint64_t kChunkBytes = kMiB;

  std::uint64_t seed_ = 0;
  std::uint64_t input_bytes_ = 0;
  graph::JobGraph graph_;
  std::string oracle_;
};

// TeraSort over 4 simulated nodes through cluster::run_cluster on an
// unthrottled fabric, so it measures format, parse and merge work rather
// than rate-limiter sleeps.
class ClusterSortWorkload final : public Workload {
 public:
  std::size_t width() const override { return 1; }

  Status prepare(std::uint64_t seed) override {
    seed_ = seed;
    job_ = cluster::ClusterJob{};
    job_.input = teragen(kRecords, seed);
    job_.format = std::make_shared<ingest::CrlfFormat>();
    job_.make_app = [] {
      return std::unique_ptr<core::Application>(
          new apps::TeraSortApp(tera_options()));
    };
    job_.config = default_config(1);
    job_.config.num_nodes = kNodes;
    job_.chunk_bytes = kMiB;
    job_.record_bytes = 100;

    auto device = std::make_shared<storage::MemDevice>(job_.input, "oracle");
    ingest::SingleDeviceSource whole(device, job_.format, 0);
    apps::TeraSortApp ref_app(tera_options());
    SUPMR_ASSIGN_OR_RETURN(ref::RefResult ref, ref::run_ref(ref_app, whole));
    oracle_ = std::move(ref.canonical);
    return Status::Ok();
  }

  JobOutcome run(SpanLog* log, int job) override {
    JobOutcome out;
    const cluster::AppFactory plain = job_.make_app;
    std::atomic<int> node_ids{0};
    if (log != nullptr) {
      job_.make_app = traced_factory(plain, *log, SpanContext{job}, &node_ids);
    }
    StatusOr<cluster::ClusterResult> result =
        Status::Internal("cluster not run");
    Meter meter;
    meter.start();
    {
      std::optional<ScopedSpan> span;
      if (log != nullptr) span.emplace(*log, sn::kClusterRun, SpanContext{job});
      result = cluster::run_cluster(job_);
    }
    meter.stop(out);
    job_.make_app = plain;
    if (!result.ok()) {
      out.error = result.status().to_string();
      return out;
    }
    JobFacts& f = out.facts;
    f.node_ingest = true;
    for (const cluster::NodeStats& node : result->nodes) {
      add_job_facts(node.job, f);
      f.node_setup_s += node.job.phases.setup_s;
      f.node_read_s += node.job.pipeline.ingest_busy_s;
      f.node_stall_s += node.job.pipeline.consumer_wait_s;
    }
    f.shuffle_bytes = result->shuffle_bytes;
    if (out.error.empty() && result->shuffle_bytes + result->local_bytes !=
                                 result->map_output_bytes) {
      out.error = "shuffle conservation broken: shuffle + local != map output";
    }
    check_output(result->output, oracle_, out);
    return out;
  }

  void describe(JsonWriter& w) const override {
    w.kv("corpus", "teragen, 10-byte keys, 100-byte CRLF records");
    w.kv("seed", seed_);
    w.kv("records", kRecords);
    w.kv("input_bytes", std::uint64_t{job_.input.size()});
    w.kv("chunk_bytes", job_.chunk_bytes);
    w.kv("nodes", std::uint64_t{kNodes});
    w.kv("threads_per_node", std::uint64_t{1});
    w.kv("fabric", "unthrottled");
  }

 private:
  static constexpr std::uint64_t kRecords = 1000000;
  static constexpr std::size_t kNodes = 4;

  std::uint64_t seed_ = 0;
  cluster::ClusterJob job_;
  std::string oracle_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "wordcount") return std::make_unique<WordCountWorkload>();
  if (name == "terasort") return std::make_unique<TeraSortWorkload>();
  if (name == "pmi") return std::make_unique<PmiWorkload>();
  if (name == "cluster_sort") return std::make_unique<ClusterSortWorkload>();
  return nullptr;
}

}  // namespace supmr::perfbench
