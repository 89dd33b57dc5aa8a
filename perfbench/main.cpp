// supmr_perfbench: runs one workload for a fixed time and prints one JSON
// report on stdout (README.md). run.py builds this binary and turns the
// report into the benchmark's result line.
//
//   supmr_perfbench --workload wordcount --seed 1 --seconds 4 --trace 0
//                   [--trace-out spans.json]
//
// One process sets up once: it generates the inputs, computes the oracle's
// output and runs one untimed warm-up job (setup_s). Every job, the warm-up
// included, is checked against the oracle and counts in attempted/failed.
// --trace 0 measures the end-to-end metrics over untraced jobs. --trace 1
// alternates untraced and traced jobs, and derives the per-layer metrics
// from the traced jobs' spans.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace supmr;
using namespace supmr::perfbench;

namespace {

namespace sn = span_name;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

constexpr double kMiB = 1 << 20;
constexpr std::size_t kMinJobs = 3;
// Upper bound on jobs per run, so a broken fast path cannot fill memory with
// outcomes.
constexpr std::size_t kMaxJobs = 100000;
// The pmi chain's stages in stage-index order (apps/chains.cpp);
// graph.stage_s.<name>.
const char* const kStageNames[] = {"wordcount", "paircount", "pmi"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::atoi(v);
    } else if (flag == "--trace-out") {
      opt.trace_out = v;
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds > 0 &&
         (opt.trace == 0 || opt.trace == 1);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;
};

class MetricSet {
 public:
  void add(const std::string& name, const std::string& unit, double value) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.samples.push_back(value);
        return;
      }
    }
    metrics_.push_back({name, unit, {value}});
  }

  // {"name": {"value": median, "unit", "all": [every sample]}, ...}
  void write(JsonWriter& w) const {
    w.begin_object();
    for (const Metric& m : metrics_) {
      w.key(m.name);
      w.begin_object();
      w.kv("value", median(m.samples));
      w.kv("unit", m.unit);
      w.key("all");
      w.begin_array();
      for (double v : m.samples) w.value(v);
      w.end_array();
      w.end_object();
    }
    w.end_object();
  }

 private:
  std::vector<Metric> metrics_;
};

// Runs jobs back to back (a closed loop, one job in flight) until `seconds`
// have passed and at least kMinJobs have run. With a log, jobs alternate
// untraced and traced, so drift over the run cancels out of the tracing
// overhead; traced jobs are numbered from 0 in the order they ran.
struct Jobs {
  std::vector<JobOutcome> untraced;
  std::vector<JobOutcome> traced;
};

Jobs run_jobs(Workload& w, double seconds, SpanLog* log) {
  Jobs out;
  const double t0 = now_s();
  for (std::size_t n = 0;; ++n) {
    if (n >= kMaxJobs ||
        (now_s() - t0 >= seconds && out.untraced.size() >= kMinJobs &&
         (log == nullptr || out.traced.size() >= kMinJobs))) {
      break;
    }
    if (log != nullptr && n % 2 == 1) {
      const int job = static_cast<int>(out.traced.size());
      out.traced.push_back(w.run(log, job));
    } else {
      out.untraced.push_back(w.run(nullptr, -1));
    }
  }
  return out;
}

// The per-layer metrics of traced job `job` (README.md has the definitions).
void add_layer_metrics(const std::vector<Span>& spans, int job,
                       const JobOutcome& o, const Workload& w,
                       MetricSet& m) {
  const JobFacts& f = o.facts;
  const auto sum = [&](const char* name) { return total(spans, job, name); };
  if (f.node_ingest) {
    m.add("ingest.plan_s", "s", f.node_setup_s - sum(sn::kInit));
    m.add("ingest.read_s", "s", f.node_read_s);
    m.add("ingest.stall_s", "s", f.node_stall_s);
  } else {
    m.add("ingest.plan_s", "s", sum(sn::kPlan));
    m.add("ingest.read_s", "s", sum(sn::kRead));
    m.add("ingest.stall_s", "s", sum(sn::kStall));
  }
  m.add("ingest.chunks", "count", static_cast<double>(f.chunks));
  m.add("threading.wave_s", "s", sum(sn::kWave));
  m.add("threading.wave_idle_frac", "fraction",
        wave_idle_frac(spans, job, w.width()));
  m.add("apps.prepare_s", "s", sum(sn::kPrepare));
  m.add("apps.map_task_s", "s", sum(sn::kMapTask));
  m.add("apps.serialize_s", "s", sum(sn::kSerialize));
  m.add("containers.reduce_s", "s", sum(sn::kReduce));
  m.add("containers.keys", "count", static_cast<double>(f.keys));
  m.add("merge.merge_s", "s", sum(sn::kMerge));
  m.add("merge.rounds", "count", static_cast<double>(f.merge_rounds));

  double handoff = 0.0;
  std::map<int, double> stage_s;
  std::vector<double> node_s;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.job != job) continue;
    if (s.name == sn::kGraphRun) handoff += self_time(spans, i);
    if (s.name == sn::kStage) stage_s[s.stage] += s.duration();
    if (s.name == sn::kClusterNode) node_s.push_back(s.duration());
  }
  m.add("graph.handoff_s", "s", handoff);
  m.add("graph.handoff_mb", "MB", static_cast<double>(f.handoff_bytes) / kMiB);
  int stage = 0;
  for (const char* name : kStageNames) {
    m.add(std::string("graph.stage_s.") + name, "s", stage_s[stage++]);
  }

  m.add("cluster.slice_s", "s", sum(sn::kClusterSlice));
  m.add("cluster.nodes_s", "s", sum(sn::kClusterNodes));
  double skew = 0.0;
  if (!node_s.empty()) {
    double mean = 0.0;
    for (double s : node_s) mean += s;
    mean /= static_cast<double>(node_s.size());
    skew = *std::max_element(node_s.begin(), node_s.end()) / mean;
  }
  m.add("cluster.node_skew", "ratio", skew);
  m.add("cluster.shuffle_s", "s", sum(sn::kClusterShuffle));
  m.add("cluster.shuffle_mb", "MB",
        static_cast<double>(f.shuffle_bytes) / kMiB);
  m.add("core.unattributed_s", "s", unattributed(spans, job));
}

void write_environment(JsonWriter& w) {
  w.begin_object();
  w.kv("nproc",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  w.kv("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  w.kv("compiler", std::string("gcc ") + __VERSION__);
#else
  w.kv("compiler", "unknown");
#endif
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("optimized", kOptimized);
  w.kv("sanitized", kSanitized);
#ifdef SUPMR_OBS_DISABLED
  w.kv("supmr_obs", false);
#else
  w.kv("supmr_obs", true);
#endif
  const char* mutation = std::getenv("SUPMR_TEST_MUTATION");
  w.kv("test_mutation", mutation != nullptr ? mutation : "");
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: supmr_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out PATH]\n");
    return 2;
  }
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr,
                 "supmr_perfbench: refusing to report numbers from an "
                 "unoptimized or sanitizer build\n");
    return 3;
  }
  std::unique_ptr<Workload> w = make_workload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "supmr_perfbench: unknown workload %s\n",
                 opt.workload.c_str());
    return 2;
  }

  MetricSet e2e;
  MetricSet layers;

  const double t0 = now_s();
  const Status st = w->prepare(opt.seed);
  if (!st.ok()) {
    std::fprintf(stderr, "supmr_perfbench: set-up failed: %s\n",
                 st.to_string().c_str());
    return 1;
  }
  std::vector<JobOutcome> jobs = {w->run(nullptr, -1)};  // the warm-up
  e2e.add("setup_s", "s", now_s() - t0);

  SpanLog log;
  Jobs run = run_jobs(*w, opt.seconds, opt.trace == 1 ? &log : nullptr);
  std::vector<double> untraced_job_s;
  for (const JobOutcome& o : run.untraced) {
    untraced_job_s.push_back(o.job_s);
    e2e.add("job_s", "s", o.job_s);
    e2e.add("cpu_s", "s", o.cpu_s);
    e2e.add("peak_rss_mb", "MB", o.peak_rss_mb);
  }

  std::vector<Span> spans;
  if (opt.trace == 1) {
    spans = log.snapshot();
    add_derived_spans(spans);
    link_parents(spans);
    std::vector<double> traced_job_s;
    for (std::size_t i = 0; i < run.traced.size(); ++i) {
      traced_job_s.push_back(run.traced[i].job_s);
      add_layer_metrics(spans, static_cast<int>(i), run.traced[i], *w,
                        layers);
    }
    layers.add("trace.overhead_frac", "fraction",
               median(traced_job_s) / median(untraced_job_s) - 1.0);
  }
  jobs.insert(jobs.end(), run.untraced.begin(), run.untraced.end());
  jobs.insert(jobs.end(), run.traced.begin(), run.traced.end());

  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  for (const JobOutcome& o : jobs) {
    if (o.ok) continue;
    ++failed;
    if (errors.size() < 5) errors.push_back(o.error);
  }
  if (!opt.trace_out.empty() && !spans.empty()) {
    const std::string doc = to_chrome_trace(spans, opt.workload);
    std::FILE* f = std::fopen(opt.trace_out.c_str(), "wb");
    const bool ok = f != nullptr &&
                    std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    if (f == nullptr || std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "supmr_perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
  }

  JsonWriter out;
  out.begin_object();
  out.kv("workload", opt.workload);
  out.kv("trace", opt.trace);
  out.key("environment");
  write_environment(out);
  out.key("inputs");
  out.begin_object();
  w->describe(out);
  out.end_object();
  out.kv("attempted", static_cast<std::uint64_t>(jobs.size()));
  out.kv("failed", failed);
  out.kv("fail_rate",
         static_cast<double>(failed) / static_cast<double>(jobs.size()));
  out.key("errors");
  out.begin_array();
  for (const std::string& e : errors) out.value(e);
  out.end_array();
  out.key("end_to_end");
  e2e.write(out);
  out.key("per_layer");
  layers.write(out);
  out.end_object();
  std::printf("%s\n", out.str().c_str());
  return failed == 0 ? 0 : 1;
}
