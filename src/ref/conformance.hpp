// One conformance cell: run a ReplaySpec's app + config against the SupMR
// runtime AND the sequential reference runtime, and compare canonical
// outputs byte for byte.
//
// This is the shared engine behind the e2e differential harness
// (tests/harness/) and `supmr replay <file>`: a cell that diverges in CI is
// written out as a ReplaySpec JSON, and replaying that file re-enters this
// exact function with the exact same seeded corpus and config.
//
// Degrade cells (spec.degrade + a permanent fault plan) compare against the
// oracle run on the SURVIVING byte ranges: the chunk plan is recomputed on
// an unfaulted device (plans are deterministic in the input bytes and chunk
// size), the chunks the run reported skipped are dropped, and the reference
// consumes the concatenation of the rest — chunk boundaries sit on record
// boundaries by the RecordFormat contract, so the splice is well-formed.
#pragma once

#include <memory>
#include <string>

#include "common/status.hpp"
#include "core/job.hpp"
#include "core/replay.hpp"

namespace supmr::runtime {
class JobManager;
}  // namespace supmr::runtime

namespace supmr::ref {

struct ConformanceOutcome {
  bool match = false;
  std::string diff;           // human-readable first-divergence summary
  std::string sut_canonical;  // the lattice cell's canonical output
  std::string ref_canonical;  // the reference runtime's canonical output
  core::JobResult job;        // the SUT run's result (degrade accounting...);
                              // for graph cells, the sink stage's result
  // Graph cells only (spec.is_graph()): stage-handoff accounting from the
  // executor, so the harness can assert a forced-spill cell really spilled.
  std::uint64_t graph_stages = 0;
  std::uint64_t graph_handoff_bytes = 0;
  std::uint64_t graph_spill_bytes = 0;
  std::uint64_t graph_spill_files = 0;
  // Cluster cells only (spec.is_cluster()): shuffle accounting from the
  // sharded runtime (src/cluster/), so the harness can assert conservation
  // (shuffle + local == map output) and owner balance.
  std::uint64_t cluster_nodes = 0;
  std::uint64_t cluster_shuffle_bytes = 0;
  std::uint64_t cluster_local_bytes = 0;
  std::uint64_t cluster_map_output_bytes = 0;
  std::uint64_t cluster_recv_max_bytes = 0;
  std::uint64_t cluster_recv_min_bytes = 0;
  double cluster_slice_s = 0.0;  // the phase times of ClusterResult
  double cluster_map_s = 0.0;
  double cluster_route_s = 0.0;
  double cluster_merge_s = 0.0;
};

// Regenerates the cell's seeded corpus (single-device kinds; the
// "multi-text" kind is materialized inside run_cell). Exposed so the
// metamorphic suite can permute a corpus and re-run the cell on it.
StatusOr<std::string> make_corpus(const core::ReplaySpec& spec);

// Runs the cell. `corpus_override` (optional) replaces the generated
// corpus for single-device apps — the metamorphic permutation tests use it;
// replay and the differential lattice pass nullptr.
StatusOr<ConformanceOutcome> run_cell(
    const core::ReplaySpec& spec,
    const std::string* corpus_override = nullptr);

// Lease parameters for run_cell_managed's submission; zeros defer to the
// manager's defaults (threads additionally defers to spec.threads).
struct ManagedCellOptions {
  int priority = 0;
  std::size_t threads = 0;
  std::size_t memory_bytes = 0;
  std::string name;
};

// run_cell, but the SUT job goes through `manager` — shared pool, shared
// chunk buffers, admission, lease — instead of running inline with private
// resources. The oracle side is identical, so this proves a managed job
// (possibly racing other jobs on the same manager) stays byte-identical to
// the sequential reference.
StatusOr<ConformanceOutcome> run_cell_managed(
    const core::ReplaySpec& spec, runtime::JobManager& manager,
    const ManagedCellOptions& opts = {},
    const std::string* corpus_override = nullptr);

// First-divergence summary between two canonical outputs ("identical" when
// equal). Printable context around the mismatch, non-printables escaped.
std::string diff_summary(const std::string& sut, const std::string& ref);

// Writes spec.to_json() to <dir>/<name>.json (dir created best-effort;
// empty dir = current directory). Returns the path written.
StatusOr<std::string> write_repro(const core::ReplaySpec& spec,
                                  const std::string& dir,
                                  const std::string& name);

}  // namespace supmr::ref
