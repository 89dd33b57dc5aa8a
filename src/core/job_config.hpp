// Job configuration: the knobs the paper's evaluation sweeps.
#pragma once

#include <cstddef>
#include <string_view>
#include <thread>

#include "common/enum_names.hpp"
#include "fault/retry_policy.hpp"
#include "ingest/chunk.hpp"

namespace supmr::core {

// Final-merge algorithm (paper §IV).
enum class MergeMode {
  kPairwise,     // original runtime: iterative pairwise merging, halving threads
  kPWay,         // SupMR: single-round parallel p-way merge
  kPartitioned,  // key-range partitioned shuffle: one merge per partition
                 // (docs/merge.md) — partitioning done at map time
};

// What the runtime hands Application::merge: the algorithm plus the
// partition count for MergeMode::kPartitioned (already resolved — never 0).
// Applications that do not shard by key range treat `partitions` as the
// parallelism hint it degenerates to.
struct MergePlan {
  MergeMode mode = MergeMode::kPWay;
  std::size_t partitions = 1;
};

// Which runtime MapReduceJob::run(ExecMode) executes.
enum class ExecMode {
  kOriginal,  // read ALL chunks, then map rounds (the paper's baseline)
  kIngestMR,  // SupMR: the ingest chunk pipeline (combined read+map phase)
  kAdaptive,  // SupMR with controller-driven chunk sizing (§VIII)
};

// Which intermediate container the application uses (--container). kDefault
// keeps each app's own choice (hash, fixed array, ...); kCombining swaps in
// the in-mapper CombiningContainer (containers/combining.hpp), which folds
// duplicate keys at emit time with the app-declared combiner. Only apps that
// declare a combiner (Application::combiner_kind() != kNone) accept
// kCombining — the CLI and ReplaySpec reject it elsewhere.
enum class ContainerMode {
  kDefault,
  kCombining,
};

// Shared name tables (common/enum_names.hpp): the CLI flags, the
// replay/serve/graph spec parsers, and log labels all map through these —
// one row per enumerator, no per-parser if-chains.
inline constexpr EnumName<ExecMode> kExecModeNames[] = {
    {ExecMode::kOriginal, "original"},
    {ExecMode::kIngestMR, "supmr"},
    {ExecMode::kAdaptive, "adaptive"},
};

inline constexpr EnumName<MergeMode> kMergeModeNames[] = {
    {MergeMode::kPairwise, "pairwise"},
    {MergeMode::kPWay, "pway"},
    {MergeMode::kPartitioned, "partitioned"},
};

inline constexpr EnumName<ContainerMode> kContainerModeNames[] = {
    {ContainerMode::kDefault, "default"},
    {ContainerMode::kCombining, "combining"},
};

std::string_view exec_mode_name(ExecMode mode);
std::string_view container_mode_name(ContainerMode mode);

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

  // Intermediate container (--container). Applied through
  // Application::use_container() by apps::make_app and each cluster node;
  // carried here so replay/report see it.
  ContainerMode container = ContainerMode::kDefault;

  // Key-space partitions for MergeMode::kPartitioned (--partitions).
  // 0 = auto: one partition per hardware context, so the per-partition
  // merges exactly fill the machine (docs/merge.md).
  std::size_t num_merge_partitions = 0;

  // Sharded-shuffle cluster runtime (src/cluster/, docs/cluster.md). 0 nodes
  // = the normal single-process run; >= 1 splits the input across that many
  // in-process worker nodes, each running its own MapReduceJob with this
  // config's mode/merge/io/container/thread knobs, then shuffles map output
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

  // Fault tolerance (fault/retry_policy.hpp): chunk-level retry policy for
  // the ingest pipelines, plus degrade mode (skip poisoned chunks with
  // accounting instead of failing the job). Defaults are fail-fast — the
  // pre-fault-layer behaviour. See docs/fault-tolerance.md.
  fault::Recovery recovery;

  // Reduce partitions: four per reducer thread, for balance.
  std::size_t reduce_partitions() const { return num_reduce_threads * 4; }

  std::size_t merge_partitions() const {
    return num_merge_partitions ? num_merge_partitions : default_threads();
  }

  // The resolved plan run() hands to Application::merge.
  MergePlan merge_plan() const { return {merge_mode, merge_partitions()}; }

  static std::size_t default_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 4 : hw;
  }
};

inline std::string_view exec_mode_name(ExecMode mode) {
  return enum_to_name(kExecModeNames, mode);
}

inline std::string_view container_mode_name(ContainerMode mode) {
  return enum_to_name(kContainerModeNames, mode);
}

}  // namespace supmr::core
