// Job configuration: the knobs the paper's evaluation sweeps.
#pragma once

#include <cstddef>
#include <string_view>
#include <thread>

#include "common/enum_names.hpp"
#include "ingest/chunk.hpp"

namespace supmr::core {

// Final-merge algorithm (paper §IV).
enum class MergeMode {
  kPairwise,  // original runtime: iterative pairwise merging, halving threads
  kPWay,      // SupMR: single-round parallel p-way merge
};

// What the runtime hands Application::merge: the merge algorithm.
struct MergePlan {
  MergeMode mode = MergeMode::kPWay;
};

// Which runtime MapReduceJob::run(ExecMode) executes.
enum class ExecMode {
  kOriginal,  // read ALL chunks, then map rounds (the paper's baseline)
  kIngestMR,  // SupMR: the ingest chunk pipeline (combined read+map phase)
};

// Shared name tables (common/enum_names.hpp): the CLI flags, the
// replay/serve/graph spec parsers, and log labels all map through these —
// one row per enumerator, no per-parser if-chains.
inline constexpr EnumName<ExecMode> kExecModeNames[] = {
    {ExecMode::kOriginal, "original"},
    {ExecMode::kIngestMR, "supmr"},
};

inline constexpr EnumName<MergeMode> kMergeModeNames[] = {
    {MergeMode::kPairwise, "pairwise"},
    {MergeMode::kPWay, "pway"},
};

std::string_view exec_mode_name(ExecMode mode);

// How ingest moves bytes from the device into chunks (--io). Defined next
// to the chunk structures (ingest/chunk.hpp); aliased here because it is a
// JobConfig knob like ExecMode/MergeMode.
using IoMode = ingest::IoMode;
using ingest::io_mode_name;

struct JobConfig {
  // Runtime selection; callers typically pass this to run():
  //   MapReduceJob job(app, source, config);
  //   auto result = job.run(config.mode);
  ExecMode mode = ExecMode::kIngestMR;

  // Mapper threads per wave; also the maximum input splits per round.
  std::size_t num_map_threads = default_threads();
  // Reducer threads (each owns disjoint hash partitions).
  std::size_t num_reduce_threads = default_threads();

  MergeMode merge_mode = MergeMode::kPWay;

  // Ingest byte movement (--io): copying reads (default) or zero-copy mmap
  // views. Sources receive this at construction; see docs/ARCHITECTURE.md §2.
  IoMode io = IoMode::kRead;

  // Sharded-shuffle cluster runtime (src/cluster/, docs/cluster.md). 0 nodes
  // = the normal single-process run; >= 1 splits the input across that many
  // in-process worker nodes, each running its own MapReduceJob with this
  // config's mode/merge/io/thread knobs, then shuffles map output
  // between them. The bandwidth knobs model the scale-out fabric: per-node
  // NIC rate, an optional shared uplink every cross-node byte also crosses,
  // and a per-node ingest-disk rate.
  std::size_t num_nodes = 0;
  double node_link_bps = 0.0;
  double uplink_bps = 0.0;
  double node_disk_bps = 0.0;

  // Spawn-and-join raw threads for every map wave instead of reusing pooled
  // workers — the paper's per-round thread lifecycle, measurable as overhead
  // with small chunks (§VI.C.1).
  bool unpooled_map_waves = false;

  // Degrade mode: a chunk whose read fails with a retryable status is
  // skipped with accounting instead of failing the job. Retries are not a
  // job knob: they live in the device stack the source reads through
  // (fault::RetryingDevice, stacked by apps::with_faults). See
  // docs/fault-tolerance.md.
  bool degrade = false;

  // Reduce partitions: four per reducer thread, for balance.
  std::size_t reduce_partitions() const { return num_reduce_threads * 4; }

  // The plan run() hands to Application::merge.
  MergePlan merge_plan() const { return {merge_mode}; }

  static std::size_t default_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 4 : hw;
  }
};

inline std::string_view exec_mode_name(ExecMode mode) {
  return enum_to_name(kExecModeNames, mode);
}

}  // namespace supmr::core
