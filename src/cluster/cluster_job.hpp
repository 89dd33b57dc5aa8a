// Sharded shuffle across simulated worker nodes — scale-up meets scale-out.
//
// run_cluster() executes one MapReduce job the way a small scale-out cluster
// would (paper §VI.C.3, Fig. 7): the input splits into N contiguous,
// record-aligned slices; N in-process WorkerNodes each run a full
// MapReduceJob over their slice, read in place, on a private leased thread
// pool (honoring the config's mode/merge/io/container knobs, with an
// optional per-node ingest-disk RateLimiter); the per-node canonical outputs
// are then range-partitioned across the nodes by key splitters cut from a
// fixed-size sample per node and shuffled — every cross-node byte charged
// against the sender NIC, an optional shared uplink, and the receiver NIC
// (the HdfsSimStore link-contention pattern) — and each owner node merges
// its sorted inboxes in one merge::LoserTree pass per the app's ShardKind
// (cluster/protocol.hpp) straight into its window of the output.
//
// The concatenation of owner outputs is byte-identical to the sequential
// oracle (src/ref/) for every participating app — that is the conformance
// contract tests/harness/cluster_conformance_test.cpp enforces.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/application.hpp"
#include "core/job.hpp"
#include "core/job_config.hpp"
#include "ingest/record_format.hpp"

namespace supmr::cluster {

// Every node builds its own Application instance from this factory (nodes
// run concurrently; apps are not shareable).
using AppFactory = std::function<std::unique_ptr<core::Application>()>;

struct ClusterJob {
  // The full input corpus; sliced across nodes in byte shares, each cut
  // moved to a record boundary (RecordFormat::adjust_split). Nodes read it
  // in place, so it must not change while run_cluster runs.
  std::string input;
  std::shared_ptr<const ingest::RecordFormat> format;
  AppFactory make_app;
  // config.num_nodes and the node_*/uplink knobs drive the cluster; the
  // remaining fields configure each node's local MapReduceJob.
  core::JobConfig config;
  std::uint64_t chunk_bytes = 64 * 1024;
  // kFixedRecords only: the app's record width (routing and owner merges
  // operate on whole records).
  std::size_t record_bytes = 0;
};

struct NodeStats {
  core::JobResult job;              // the node-local MapReduceJob result
  std::uint64_t input_bytes = 0;    // slice size
  std::uint64_t map_output_bytes = 0;  // node canonical bytes (pre-shuffle)
  std::uint64_t sent_bytes = 0;     // shuffled to OTHER nodes
  std::uint64_t recv_bytes = 0;     // shuffled here from other nodes
  std::uint64_t local_bytes = 0;    // routed node-locally (never on the wire)
};

struct ClusterResult {
  std::string output;  // concatenated owner outputs == oracle bytes
  std::vector<NodeStats> nodes;
  // Conservation invariant: shuffle_bytes + local_bytes == map_output_bytes
  // (every map-output byte is routed exactly once).
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t local_bytes = 0;
  std::uint64_t map_output_bytes = 0;
  core::ShardKind shard = core::ShardKind::kNone;
  double elapsed_s = 0.0;
  // Wall time of each phase; they sum to at most elapsed_s.
  double slice_s = 0.0;  // checks and the slice cuts
  double map_s = 0.0;    // the node jobs
  double route_s = 0.0;  // split, sample, routing and fabric charges
  double merge_s = 0.0;  // owner merges and assembly of the output
};

StatusOr<ClusterResult> run_cluster(const ClusterJob& job);

}  // namespace supmr::cluster
