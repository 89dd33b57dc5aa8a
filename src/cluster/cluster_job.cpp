#include "cluster/cluster_job.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>

#include "cluster/protocol.hpp"
#include "ingest/source.hpp"
#include "merge/splitters.hpp"
#include "obs/macros.hpp"
#include "storage/mem_device.hpp"
#include "storage/rate_limiter.hpp"
#include "storage/throttled_device.hpp"
#include "threading/thread_pool.hpp"

namespace supmr::cluster {
namespace {

// Records each node contributes to the splitter sample.
constexpr std::size_t kSamplePerNode = 32;

// Node input slices: views of job.input, slice k ending at the first record
// boundary at or after (k + 1) * size / N (RecordFormat::adjust_split), so
// the slices concatenate to exactly the input and each gets about size / N
// bytes. A slice is empty only where one record spans a whole share.
StatusOr<std::vector<std::string_view>> slice_input(const ClusterJob& job,
                                                    std::size_t nodes) {
  const storage::MemDevice device(storage::MemDevice::Borrowed{job.input},
                                  "cluster-plan");
  const std::string_view input = device.contents();
  std::vector<std::string_view> slices(nodes);
  std::uint64_t begin = 0;
  for (std::size_t k = 0; k < nodes; ++k) {
    std::uint64_t end = input.size();
    if (k + 1 < nodes) {
      const std::uint64_t share = input.size() * (k + 1) / nodes;
      SUPMR_ASSIGN_OR_RETURN(end, job.format->adjust_split(device, share));
      end = std::max(end, begin);
    }
    slices[k] = input.substr(begin, end - begin);
    begin = end;
  }
  return slices;
}

struct NodeRun {
  std::string canonical;
  NodeStats stats;
};

// One WorkerNode: a MemDevice borrowing the slice (job outlives the node
// threads), throttled to the node disk rate when modeled, a fresh
// Application, and a full MapReduceJob on the node's own leased pool.
Status run_node(const ClusterJob& job, std::string_view slice,
                std::shared_ptr<storage::RateLimiter> disk, NodeRun& out) {
  core::JobConfig cfg = job.config;
  cfg.num_nodes = 0;  // the node-local job must not recurse the cluster knobs
  cfg.node_link_bps = 0.0;
  cfg.uplink_bps = 0.0;
  cfg.node_disk_bps = 0.0;

  out.stats.input_bytes = slice.size();
  std::shared_ptr<const storage::Device> device =
      std::make_shared<storage::MemDevice>(storage::MemDevice::Borrowed{slice},
                                           "cluster-node");
  if (disk != nullptr) {
    device = std::make_shared<storage::ThrottledDevice>(device, disk);
  }
  ingest::SingleDeviceSource source(device, job.format, job.chunk_bytes,
                                    cfg.io);

  std::unique_ptr<core::Application> app = job.make_app();
  if (app == nullptr) {
    return Status::InvalidArgument("cluster: application factory returned null");
  }
  ThreadPool pool(std::max<std::size_t>(
      {cfg.num_map_threads, cfg.num_reduce_threads, 1}));
  core::MapReduceJob mr(*app, source, cfg);
  mr.attach_runtime(pool);
  SUPMR_ASSIGN_OR_RETURN(out.stats.job, mr.run(cfg.mode));
  out.canonical = app->canonical_output();
  out.stats.map_output_bytes = out.canonical.size();
  return Status::Ok();
}

std::uint64_t run_bytes(const std::vector<std::string_view>& run) {
  std::uint64_t bytes = 0;
  for (std::string_view r : run) bytes += r.size();
  return bytes;
}

}  // namespace

StatusOr<ClusterResult> run_cluster(const ClusterJob& job) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t N = job.config.num_nodes;
  if (N == 0) {
    return Status::InvalidArgument("cluster: nodes must be >= 1");
  }
  if (!job.make_app) {
    return Status::InvalidArgument("cluster: application factory is empty");
  }
  if (job.format == nullptr) {
    return Status::InvalidArgument("cluster: record format is null");
  }
  core::ShardKind shard;
  {
    std::unique_ptr<core::Application> probe = job.make_app();
    if (probe == nullptr) {
      return Status::InvalidArgument(
          "cluster: application factory returned null");
    }
    shard = probe->shard_kind();
  }
  if (shard == core::ShardKind::kNone) {
    return Status::InvalidArgument(
        "cluster: application declares no shard protocol");
  }
  if (shard == core::ShardKind::kFixedRecords && job.record_bytes == 0) {
    return Status::InvalidArgument(
        "cluster: fixed-record sharding needs record_bytes");
  }

  SUPMR_ASSIGN_OR_RETURN(const std::vector<std::string_view> slices,
                         slice_input(job, N));

  // The fabric: per-node NIC limiters, the optional shared uplink every
  // cross-node byte also crosses, and per-node ingest-disk limiters. A zero
  // rate leaves that leg unmodeled (infinite bandwidth).
  std::vector<std::shared_ptr<storage::RateLimiter>> nic(N);
  std::vector<std::shared_ptr<storage::RateLimiter>> disk(N);
  std::shared_ptr<storage::RateLimiter> uplink;
  if (job.config.node_link_bps > 0) {
    for (auto& limiter : nic) {
      limiter = std::make_shared<storage::RateLimiter>(job.config.node_link_bps);
    }
  }
  if (job.config.uplink_bps > 0) {
    uplink = std::make_shared<storage::RateLimiter>(job.config.uplink_bps);
  }
  if (job.config.node_disk_bps > 0) {
    for (auto& limiter : disk) {
      limiter = std::make_shared<storage::RateLimiter>(job.config.node_disk_bps);
    }
  }

  // Phase 1: every node runs its local MapReduceJob, concurrently — the
  // disk limiters only contend (and ingest only overlaps) if they do.
  const auto t_sliced = std::chrono::steady_clock::now();
  std::vector<NodeRun> runs(N);
  std::vector<Status> node_status(N, Status::Ok());
  {
    std::vector<std::thread> threads;
    threads.reserve(N);
    for (std::size_t k = 0; k < N; ++k) {
      threads.emplace_back([&, k] {
        try {
          node_status[k] = run_node(job, slices[k], disk[k], runs[k]);
        } catch (const std::exception& e) {
          node_status[k] =
              Status::Internal(std::string("cluster node threw: ") + e.what());
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  for (const Status& st : node_status) SUPMR_RETURN_IF_ERROR(st);
  const auto t_mapped = std::chrono::steady_clock::now();

  // Phase 2: split each node's canonical into protocol records.
  const bool keyed = shard == core::ShardKind::kSortedKeys;
  std::vector<std::vector<std::string_view>> records(N);
  for (std::size_t k = 0; k < N; ++k) {
    if (keyed) {
      SUPMR_ASSIGN_OR_RETURN(records[k], split_lines(runs[k].canonical));
    } else {
      SUPMR_ASSIGN_OR_RETURN(records[k],
                             split_fixed(runs[k].canonical, job.record_bytes));
    }
  }

  // Phase 3: shuffle, in the protocol's record order `less`. Each node's
  // records are sorted under `less`, so kSamplePerNode evenly spaced ones
  // are its quantiles; merge::cut_splitters cuts the sorted merged sample
  // (deterministic, so the schedule cannot change placement), and node p
  // owns key-range partition p; duplicate-heavy samples may yield fewer
  // cuts than nodes, leaving high-numbered nodes ownerless. Senders bucket
  // their records by owner with merge::partition_of, so every bucket keeps
  // its sender's order and each inbox is one sorted run, and charge every
  // cross-node payload against sender NIC -> uplink -> receiver NIC.
  // inbox[owner][sender] has exactly one writer, so senders never race.
  std::vector<std::vector<std::vector<std::string_view>>> inbox;
  const auto shuffle = [&](auto less) {
    std::vector<std::string_view> sample;
    for (const std::vector<std::string_view>& node : records) {
      const std::size_t take = std::min(kSamplePerNode, node.size());
      for (std::size_t i = 0; i < take; ++i)
        sample.push_back(node[(2 * i + 1) * node.size() / (2 * take)]);
    }
    std::sort(sample.begin(), sample.end(), less);
    const std::vector<std::string_view> splitters = merge::cut_splitters(
        std::span<const std::string_view>(sample), N, less);
    // At most N - 1 cuts, so P <= N and partition o's owner is node o.
    const std::size_t P = splitters.size() + 1;
    inbox.assign(P, std::vector<std::vector<std::string_view>>(N));
    std::vector<std::thread> senders;
    senders.reserve(N);
    for (std::size_t s = 0; s < N; ++s) {
      senders.emplace_back([&, s] {
        std::vector<std::vector<std::string_view>> buckets(P);
        for (std::string_view rec : records[s]) {
          buckets[merge::partition_of(splitters, rec, less)].push_back(rec);
        }
        for (std::size_t o = 0; o < P; ++o) {
          const std::uint64_t bytes = run_bytes(buckets[o]);
          if (o == s) {
            runs[s].stats.local_bytes += bytes;
          } else if (bytes > 0) {
            if (nic[s] != nullptr) nic[s]->acquire(bytes);
            if (uplink != nullptr) uplink->acquire(bytes);
            if (nic[o] != nullptr) nic[o]->acquire(bytes);
            runs[s].stats.sent_bytes += bytes;
          }
          inbox[o][s] = std::move(buckets[o]);
        }
      });
    }
    for (auto& t : senders) t.join();
  };
  if (keyed) {
    shuffle(SortedKeyLess{});
  } else {
    shuffle(std::less<std::string_view>{});
  }
  // Owner o's window of the one output string is [window[o], window[o + 1]):
  // its inbox bytes, which a merge never exceeds (protocol.hpp).
  const std::size_t P = inbox.size();
  std::vector<std::size_t> window(P + 1, 0);
  for (std::size_t o = 0; o < P; ++o) {
    for (std::size_t s = 0; s < N; ++s) {
      if (o != s) runs[o].stats.recv_bytes += run_bytes(inbox[o][s]);
    }
    const NodeStats& owner = runs[o].stats;
    window[o + 1] = window[o] + owner.recv_bytes + owner.local_bytes;
  }
  const auto t_routed = std::chrono::steady_clock::now();

  // Phase 4: owner merges, one loser-tree pass per partition, concurrently,
  // each into its own window, so they write disjoint bytes.
  ClusterResult result;
  result.shard = shard;
  result.output.resize(window[P]);
  char* const base = result.output.data();
  std::vector<char*> ends(P);
  std::vector<Status> owner_status(P, Status::Ok());
  {
    std::vector<std::thread> owners;
    owners.reserve(P);
    for (std::size_t o = 0; o < P; ++o) {
      owners.emplace_back([&, o] {
        try {
          char* const out = base + window[o];
          const StatusOr<char*> end =
              keyed ? merge_sorted_keys(inbox[o], out)
                    : merge_fixed_records(inbox[o], out);
          owner_status[o] = end.status();
          if (end.ok()) ends[o] = *end;
        } catch (const std::exception& e) {
          owner_status[o] = Status::Internal(
              std::string("cluster owner merge threw: ") + e.what());
        }
      });
    }
    for (auto& t : owners) t.join();
  }
  for (const Status& st : owner_status) SUPMR_RETURN_IF_ERROR(st);
  // Close the gaps sorted-keys folds leave at their windows' ends.
  std::size_t used = 0;
  for (std::size_t o = 0; o < P; ++o) {
    assert(keyed ? ends[o] <= base + window[o + 1]
                 : ends[o] == base + window[o + 1]);
    const std::size_t bytes = ends[o] - (base + window[o]);
    if (used != window[o]) std::memmove(base + used, base + window[o], bytes);
    used += bytes;
  }
  result.output.resize(used);
  const auto t_merged = std::chrono::steady_clock::now();

  result.nodes.reserve(N);
  for (std::size_t k = 0; k < N; ++k) {
    result.map_output_bytes += runs[k].stats.map_output_bytes;
    result.shuffle_bytes += runs[k].stats.sent_bytes;
    result.local_bytes += runs[k].stats.local_bytes;
    result.nodes.push_back(std::move(runs[k].stats));
  }
  const auto seconds = [](auto from, auto to) {
    return std::chrono::duration<double>(to - from).count();
  };
  result.slice_s = seconds(t0, t_sliced);
  result.map_s = seconds(t_sliced, t_mapped);
  result.route_s = seconds(t_mapped, t_routed);
  result.merge_s = seconds(t_routed, t_merged);
  result.elapsed_s = seconds(t0, std::chrono::steady_clock::now());

  SUPMR_COUNTER_ADD("cluster.shuffle_bytes", result.shuffle_bytes);
  SUPMR_COUNTER_ADD("cluster.local_bytes", result.local_bytes);
  SUPMR_GAUGE_SET("cluster.nodes", N);
  std::uint64_t recv_max = 0;
  std::uint64_t recv_min = ~std::uint64_t{0};
  for (const NodeStats& node : result.nodes) {
    const std::uint64_t owned = node.recv_bytes + node.local_bytes;
    recv_max = std::max(recv_max, owned);
    recv_min = std::min(recv_min, owned);
  }
  SUPMR_GAUGE_SET("cluster.node_recv_max_bytes", recv_max);
  SUPMR_GAUGE_SET("cluster.node_recv_min_bytes", recv_min);
  return result;
}

}  // namespace supmr::cluster
