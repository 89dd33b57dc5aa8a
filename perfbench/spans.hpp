// In-memory spans for the benchmark's traced run, and the arithmetic that
// turns them into per-layer metrics (README.md, "Per-layer metrics").
//
// The benchmark records a span around every call it makes into a layer's
// public functions (traced.hpp); nothing inside the runtime is instrumented.
// Two kinds of span are derived afterwards because no single call brackets
// them: a map wave (threading.wave) and the coordinator's wait for the next
// chunk (ingest.stall). Parents are assigned after the run from interval
// containment and the ids each span carries, so wrappers never need to know
// which span is open on another thread.
#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

namespace supmr::perfbench {

namespace span_name {
inline constexpr const char* kJob = "core.job";          // MapReduceJob::run
inline constexpr const char* kGraphRun = "graph.run";    // graph::run_graph
inline constexpr const char* kStage = "graph.stage";     // one StageRunner call
inline constexpr const char* kClusterRun = "cluster.run";  // run_cluster
inline constexpr const char* kClusterSlice = "cluster.slice";
inline constexpr const char* kClusterNodes = "cluster.nodes";
inline constexpr const char* kClusterNode = "cluster.node";
inline constexpr const char* kClusterShuffle = "cluster.shuffle";
inline constexpr const char* kPlan = "ingest.plan";
inline constexpr const char* kRead = "ingest.read_chunk";
inline constexpr const char* kStall = "ingest.stall";
inline constexpr const char* kInit = "apps.init";
inline constexpr const char* kPrepare = "apps.prepare_round";
inline constexpr const char* kMapTask = "apps.map_task";
inline constexpr const char* kWave = "threading.wave";
inline constexpr const char* kReduce = "containers.reduce";
inline constexpr const char* kMerge = "merge.merge";
inline constexpr const char* kSerialize = "apps.serialize";
}  // namespace span_name

// One interval at a layer boundary. Times are seconds since the log's epoch.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the span list; -1 for a root
  int thread = 0;   // small per-OS-thread id (the Chrome-trace tid)
  int job = -1;     // timed-job index within the run
  int stage = -1;   // graph stage index, -1 outside a graph stage
  int node = -1;    // cluster node, -1 outside a cluster node
  int round = -1;   // ingest round of prepare/map/wave spans, else -1

  double duration() const { return end - start; }
};

// Thread-safe append-only span store. The benchmark keeps every span of a
// run in memory and writes them out once at the end.
class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  void add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  // The spans recorded so far, in insertion order.
  std::vector<Span> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Small dense id of the calling thread (assigned on first use).
  static int thread_id();

 private:
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Ids a wrapper stamps on every span it records.
struct SpanContext {
  int job = -1;
  int stage = -1;
  int node = -1;
};

// Records [construction, destruction) on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, SpanContext ctx, int round = -1)
      : log_(log), name_(name), ctx_(ctx), round_(round), start_(log.now()) {}
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  const char* name_;
  SpanContext ctx_;
  int round_;
  double start_;
};

// Adds the derived spans, for every job context (job, stage, node) that has
// map tasks:
//   * threading.wave per round: from prepare_round's return to the return
//     of the round's last map_task, on the coordinator's thread;
//   * ingest.stall for each gap on the coordinator between the end of the
//     plan (or of init, where the plan is not visible) and the start of
//     reduce that no prepare_round or wave covers — waiting for the next
//     chunk.
// And, for every cluster.run root, the three intervals that tile it:
// cluster.slice (entry to the first node's init), cluster.nodes (to the
// last node's canonical_output return) and cluster.shuffle (to the return),
// plus one cluster.node per node spanning that node's own spans.
void add_derived_spans(std::vector<Span>& spans);

// Sets Span::parent: the innermost span of the same job on the same thread
// whose interval contains it; else, for a map task, its round's wave; else
// the graph stage, cluster node or root of its context.
void link_parents(std::vector<Span>& spans);

// Length of the union of [start, end) intervals, clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi);

// A span's duration minus the part of it its children on the same thread
// cover (spans must be linked).
double self_time(const std::vector<Span>& spans, std::size_t index);

// Sum of the durations of `job`'s spans called `name`.
double total(const std::vector<Span>& spans, int job, const std::string& name);

// 1 - (map-task thread-seconds) / (width x wave seconds) over `job`'s waves.
// 0 when the job has no waves.
double wave_idle_frac(const std::vector<Span>& spans, int job,
                      std::size_t width);

// Time on `job`'s blocking path that no layer span covers: the self time of
// each core.job and graph.stage, and of the cluster node that finished last.
// graph.run's self time is the graph handoff, a layer of its own.
double unattributed(const std::vector<Span>& spans, int job);

// Chrome-trace JSON ("traceEvents", Perfetto opens it) of linked spans.
std::string to_chrome_trace(const std::vector<Span>& spans,
                            const std::string& workload);

}  // namespace supmr::perfbench
