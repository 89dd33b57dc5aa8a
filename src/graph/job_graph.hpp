// JobGraph: multi-stage chained MapReduce with in-memory stage handoff.
//
// A graph is a DAG of stages. Each stage is a core::Application (built by a
// factory so the executor — and the sequential oracle in src/ref/ — can
// instantiate fresh twins) plus per-stage config: its own JobConfig, the
// RecordFormat of its *input*, and a chunk size. Root stages read an
// external IngestSource; every other stage consumes the canonical_output()
// bytes of its upstream stages, concatenated in edge-insertion order.
//
// The point of the subsystem is the edge: the classic multi-job pipeline
// writes stage output to a file and re-ingests it, paying the disk round
// trip the paper spends its sections circumventing for a single job. Here
// an edge payload stays in memory — wrapped in a MemDevice, which lends
// zero-copy views to the next stage's ingest pipeline (IoMode::kMmap) — and
// only spills to a temp file when GraphOptions says so: handoff = kFile
// forces the write-out-and-re-ingest baseline (what bench/bench_graph.cpp
// compares against), and with handoff = kMemory a per-boundary
// memory_budget > 0 spills exactly the payloads that exceed it.
//
// Execution is pluggable through StageRunner: the default runs each stage
// inline on private resources (MapReduceJob::run); ref::run_cell_managed,
// which `supmr serve` runs, supplies a runner that submits every stage
// through JobManager::submit so each acquires a ResourceLease. graph.*
// counters account stages run and handoff vs spill bytes.
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
#include "core/replay.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"

namespace supmr::graph {

using AppFactory = std::function<std::unique_ptr<core::Application>()>;

// Per-stage knobs. `format` describes the stage's INPUT bytes (the upstream
// canonical encoding for interior stages); `chunk_bytes` feeds the stage's
// SingleDeviceSource (0 = one whole-input chunk). Root stages ignore both —
// their external source already carries a format and chunking.
struct StageOptions {
  std::string name;
  core::JobConfig config;
  std::shared_ptr<const ingest::RecordFormat> format;
  std::uint64_t chunk_bytes = 0;
  ingest::IoMode io = ingest::IoMode::kRead;
};

class JobGraph {
 public:
  struct Stage {
    AppFactory make_app;
    StageOptions options;
    std::shared_ptr<const ingest::IngestSource> source;  // roots only
    std::vector<std::size_t> inputs;   // upstream stages, edge order
    std::vector<std::size_t> outputs;  // downstream stages
  };

  // Adds a stage; returns its index. The factory must produce a freshly
  // constructed Application on every call.
  std::size_t add_stage(AppFactory make_app, StageOptions options);

  // Makes `stage` a root reading `source`. A stage may have an external
  // source or in-edges, never both (validate() enforces it).
  Status set_source(std::size_t stage,
                    std::shared_ptr<const ingest::IngestSource> source);

  // Adds the edge from -> to: `from`'s canonical output becomes (part of)
  // `to`'s input. Duplicate edges are legal and append the payload again.
  Status add_edge(std::size_t from, std::size_t to);

  std::size_t num_stages() const { return stages_.size(); }
  const Stage& stage(std::size_t i) const { return stages_[i]; }

  // Structural validation + Kahn topological order. Errors: empty graph, a
  // cycle, a root without a source, an interior stage with a source, a
  // non-root without a format, or a sink count != 1 (the single sink's
  // canonical output is the graph's final output).
  StatusOr<std::vector<std::size_t>> topo_order() const;

  // Index of the unique sink (only meaningful after topo_order() succeeds).
  StatusOr<std::size_t> sink() const;

 private:
  std::vector<Stage> stages_;
};

struct GraphOptions {
  core::GraphHandoff handoff = core::GraphHandoff::kMemory;
  // Per-stage-boundary budget in bytes for kMemory handoff: a consumer's
  // concatenated input payload larger than this spills to a temp file
  // before re-ingest. 0 = unlimited (never spill).
  std::uint64_t memory_budget = 0;
  // Directory for spill files ("" = /tmp). Files are unlinked immediately
  // after opening, so nothing survives the run even on a crash.
  std::string spill_dir;
  // Emulated spill-device bandwidth in bytes/second, 0 = unthrottled. When
  // set, every spilled edge charges its write AND its re-ingest reads
  // against one shared RateLimiter — the same device-class emulation the
  // ingest benchmarks use (tools/supmr --throttle, bench/ablation_disk_bw).
  // On a machine whose page cache absorbs file round trips, this is what
  // makes the file-handoff baseline cost what a disk-backed pipeline costs.
  double spill_bps = 0;
};

struct StageResult {
  std::string name;
  core::JobResult job;               // per-stage phase timings live here
  std::uint64_t output_bytes = 0;    // canonical_output() size
};

struct GraphResult {
  std::vector<StageResult> stages;   // in executed (topological) order
  std::string final_output;          // the sink stage's canonical output
  std::uint64_t handoff_bytes = 0;   // edge payload bytes kept in memory
  std::uint64_t spill_bytes = 0;     // edge payload bytes routed via files
  std::uint64_t spill_files = 0;

  double total_s() const {
    double s = 0;
    for (const auto& st : stages) s += st.job.phases.total_s;
    return s;
  }
};

// How the executor runs one stage. The default (empty) runner executes
// inline: MapReduceJob(app, source, cfg).run(cfg.mode).
using StageRunner = std::function<StatusOr<core::JobResult>(
    std::size_t stage, core::Application&, const ingest::IngestSource&,
    const core::JobConfig&)>;

// Executes the graph: topological order, one stage at a time, payloads
// handed across edges per `options`. Fail-fast: the first stage error
// aborts the graph with that Status.
StatusOr<GraphResult> run_graph(const JobGraph& graph,
                                const GraphOptions& options = {},
                                const StageRunner& runner = {});

}  // namespace supmr::graph
