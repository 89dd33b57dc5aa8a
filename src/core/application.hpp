// The SupMR application interface.
//
// Mirrors the paper's Phoenix++-derived structure (Table I): the runtime
// owns scheduling, ingest and memory movement; the application owns the
// map/reduce logic and its intermediate container. set_data() from the paper
// — "pass the chunk length and ingest chunk pointer back to the application"
// — is prepare_round(chunk) here: the runtime dictates which part of memory
// the callbacks operate on.
//
// Lifecycle, in run(kIngestMR) order:
//   init(mappers)                      once   (persistent container init)
//   for each ingest chunk:
//     prepare_round(chunk)             multiple  (split; claim container space)
//     map_task(t, thread) x tasks      multiple  (one wave, thread < mappers)
//   reduce(pool, partitions)           once
//   merge(pool, plan, stats)           once
//
// map_task contract: the runtime maps each round in one wave of at most
// `num_map_threads` workers. Each worker claims the round's next task and
// runs map_task(task, thread_id) under its own thread_id < the init()
// mapper count until no task remains, so tasks with the same thread_id
// never overlap and a task may use thread_id to address a per-thread
// container stripe without locking. round_tasks() may be any number.
// Which thread_id runs which task is unspecified: whatever a task folds
// into a per-thread stripe must be exact under reordering (integer counts,
// keyed entries the merge orders), or be kept per task and combined in task
// order (k-means' floating-point sums).
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "core/job_config.hpp"
#include "ingest/chunk.hpp"
#include "merge/stats.hpp"
#include "threading/thread_pool.hpp"

namespace supmr::core {

// The associative fold an application declares for in-mapper combining
// (containers/combining.hpp). kNone means the app has no combiner and
// rejects ContainerMode::kCombining.
enum class CombinerKind {
  kNone,
  kSum,
  kMin,
  kMax,
  kAppend,
};

inline constexpr EnumName<CombinerKind> kCombinerKindNames[] = {
    {CombinerKind::kNone, "none"},   {CombinerKind::kSum, "sum"},
    {CombinerKind::kMin, "min"},     {CombinerKind::kMax, "max"},
    {CombinerKind::kAppend, "append"},
};

inline std::string_view combiner_kind_name(CombinerKind kind) {
  return enum_to_name(kCombinerKindNames, kind);
}

// How the cluster runtime (src/cluster/) may shard an app's canonical
// output across simulated worker nodes and reassemble it byte-identically.
// Each kind is one sorted-run protocol: nodes route records by sampled key
// ranges, and each owner merges its inboxes in one merge::LoserTree pass.
// kNone means the app declares no shuffle protocol and rejects cluster runs.
enum class ShardKind {
  kNone,
  // canonical_output() is "key\tu64\n" lines, sorted lexicographically by
  // key (the prefix up to the LAST tab), keys unique within one run; equal
  // keys across runs fold by summing the decimal value. Word count, grep,
  // pair count and histogram (zero-padded bin keys).
  kSortedKeys,
  // canonical_output() is fixed-width records whose global order is
  // full-record memcmp (the key is a record prefix and ties are normalized
  // by full bytes, so equal records are byte-identical). TeraSort.
  kFixedRecords,
};

inline constexpr EnumName<ShardKind> kShardKindNames[] = {
    {ShardKind::kNone, "none"},
    {ShardKind::kSortedKeys, "sorted-keys"},
    {ShardKind::kFixedRecords, "fixed-records"},
};

inline std::string_view shard_kind_name(ShardKind kind) {
  return enum_to_name(kShardKindNames, kind);
}

// Fold-effectiveness accounting for a combining run (all zero when the app
// ran its default container). bytes_emitted is the intermediate volume a
// non-combining container would have carried into reduce/merge (every emit's
// key+value payload); bytes_into_merge is what actually survived the
// emit-time fold.
struct CombineStats {
  std::uint64_t emits = 0;
  std::uint64_t keys_folded = 0;  // emits absorbed into an existing key
  std::uint64_t bytes_emitted = 0;
  std::uint64_t bytes_into_merge = 0;
  std::uint64_t table_bytes = 0;  // peak combining-table footprint
};

class Application {
 public:
  virtual ~Application() = default;

  // Called once before the first round. Containers must be initialized here
  // and persist across rounds (paper §III.C).
  virtual void init(std::size_t num_map_threads) = 0;

  // The runtime hands the application the current ingest chunk (set_data()).
  // The application partitions it into splits (apps/split.hpp cuts
  // kSlicesPerMapper per mapper) and claims any container space the round
  // needs. The chunk reference is only valid until the round's map tasks
  // finish.
  virtual Status prepare_round(const ingest::IngestChunk& chunk) = 0;

  // Number of map tasks for the prepared round: any number. The round's
  // workers claim them one at a time.
  virtual std::size_t round_tasks() const = 0;

  // Maps split `task` on `thread_id`. Must be safe to run concurrently with
  // the round's other tasks on other thread_ids; tasks on the same
  // thread_id run one after another.
  virtual void map_task(std::size_t task, std::size_t thread_id) = 0;

  // Coalesces intermediate pairs after all rounds (parallel over partitions).
  virtual Status reduce(ThreadPool& pool, std::size_t num_partitions) = 0;

  // Produces the final sorted output with the configured merge algorithm.
  // `plan.partitions` is the resolved partition count for
  // MergeMode::kPartitioned (a parallelism hint otherwise).
  virtual Status merge(ThreadPool& pool, const MergePlan& plan,
                       merge::MergeStats* stats) = 0;

  // Number of output records/pairs — used for result validation.
  virtual std::uint64_t result_count() const = 0;

  // The associative combiner this app can fold with at emit time. kNone
  // (the default) means the app only runs its own container.
  virtual CombinerKind combiner_kind() const { return CombinerKind::kNone; }

  // The shuffle protocol the sharded cluster runtime (src/cluster/) uses to
  // route and reassemble this app's output across worker nodes. kNone (the
  // default) opts the app out of cluster runs.
  virtual ShardKind shard_kind() const { return ShardKind::kNone; }

  // Selects the intermediate container before init(). apps::make_app (the
  // CLI and the conformance harness), cluster nodes and quickstart call this
  // with the configured container; apps that declare a combiner override it
  // to switch their emit seam. The default rejects everything but kDefault,
  // so an app without a combiner can never silently fall back.
  virtual Status use_container(ContainerMode mode) {
    if (mode == ContainerMode::kDefault) return Status::Ok();
    return Status::InvalidArgument(
        "container=" + std::string(container_mode_name(mode)) +
        ": this application declares no combiner");
  }

  // Fold-effectiveness accounting, valid after merge. All-zero unless the
  // app ran with ContainerMode::kCombining.
  virtual CombineStats combine_stats() const { return {}; }

  // Canonical byte encoding of the final output, for differential
  // comparison against the sequential reference runtime (src/ref/ and
  // tests/harness/). Valid after merge. The encoding must PRESERVE the
  // app's post-merge ordering — a merge/shuffle bug has to change these
  // bytes — and may normalize only what the output contract leaves
  // unspecified (ties between equal keys). Returning "" opts the app out
  // of conformance checking.
  virtual std::string canonical_output() const { return {}; }
};

}  // namespace supmr::core
