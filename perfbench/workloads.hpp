// The benchmark's workloads (README.md, "Workloads"). Each generates its
// inputs from the seed, computes the sequential oracle's output once, and
// then runs jobs through one public entry point of the runtime — untraced,
// or traced through the wrappers in traced.hpp — checking every output
// byte-for-byte against the oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "common/status.hpp"
#include "spans.hpp"

namespace supmr::perfbench {

// What a job's public call returned, beyond its spans.
struct JobFacts {
  std::uint64_t keys = 0;           // sum of result_count over the job's apps
  std::uint64_t merge_rounds = 0;   // sum of MergeStats rounds
  std::uint64_t chunks = 0;         // ingest chunks over all sources
  std::uint64_t handoff_bytes = 0;  // graph edge payloads kept in memory
  std::uint64_t shuffle_bytes = 0;  // cluster bytes sent across nodes
  // Cluster nodes build their sources inside run_cluster, out of the
  // wrappers' reach; their ingest comes from each node's JobResult.
  bool node_ingest = false;
  double node_setup_s = 0.0;  // init + plan (PhaseBreakdown::setup_s)
  double node_read_s = 0.0;   // PipelineStats::ingest_busy_s
  double node_stall_s = 0.0;  // PipelineStats::consumer_wait_s
};

struct JobOutcome {
  double job_s = 0.0;        // wall time of the public call
  double cpu_s = 0.0;        // process user+sys CPU during the call
  double peak_rss_mb = 0.0;  // peak resident set during the call, above
                             // the resident set before it
  bool ok = false;           // returned OK, output == oracle, invariants hold
  std::string error;         // why not ok
  JobFacts facts;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Map-wave width (mapper threads per job, or per node).
  virtual std::size_t width() const = 0;
  // Generates the inputs from `seed` and the oracle's output for them.
  virtual Status prepare(std::uint64_t seed) = 0;
  // One job through the public entry point. Traced when `log` is non-null,
  // its spans stamped with `job`.
  virtual JobOutcome run(SpanLog* log, int job) = 0;
  // Seeds, sizes and knobs, for the report's "inputs" block.
  virtual void describe(JsonWriter& w) const = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name);

}  // namespace supmr::perfbench
