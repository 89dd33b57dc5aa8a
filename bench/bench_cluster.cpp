// Scale-up vs scale-out (paper §VI.C.3, Fig. 7): one machine against a
// simulated N-node cluster on the SAME workload, with the bandwidths that
// decide the race modeled explicitly.
//
// The paper's argument is that a scale-up node with enough memory bandwidth
// beats a small cluster because the cluster pays the network for its shuffle.
// The counter-argument — the reason clusters exist — is aggregate ingest
// bandwidth: N nodes own N disks. This bench reproduces both regimes with
// the sharded-shuffle runtime (src/cluster/, docs/cluster.md):
//
//   fast fabric — per-node NICs at 1 GB/s, per-node ingest disks at 32 MB/s.
//                 Ingest dominates: N nodes drain their slices from N disks
//                 concurrently while the shuffle is nearly free, so
//                 scale-OUT wins and scale-up's single disk is the
//                 bottleneck (the HDFS-era deployment the paper pushes
//                 against).
//   slow fabric — the same disks behind 8 MB/s NICs. Now the cross-node
//                 shuffle (~ (N-1)/N of all map output) is the bottleneck:
//                 the 1-node "cluster" that never touches the wire wins,
//                 which is the paper's scale-up claim in miniature.
//
// Node counts {1, 2, 4} run in both regimes; every run's reassembled output
// is byte-checked against every other BEFORE any timing is reported, so the
// crossover is never quoted over diverging bytes. Iterations interleave
// regimes and node counts so cache/thermal drift hits all cells equally.
// The workload is TeraSort (fixed 100-byte records): map output equals
// input, making shuffled-byte accounting exact.
//
// Results go to stdout and — as the committed perf trajectory — to
// BENCH_cluster.json (override with --out=PATH).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/tera_sort.hpp"
#include "bench/bench_util.hpp"
#include "cluster/cluster_job.hpp"
#include "ingest/record_format.hpp"
#include "wload/teragen.hpp"

using namespace supmr;

namespace {

constexpr int kIters = 3;             // best-of to shed scheduler noise
constexpr std::uint64_t kRecords = 40000;  // 100B records -> 4 MB
constexpr std::size_t kRecordBytes = 100;
constexpr double kDiskBps = 32e6;     // per-node ingest disk
constexpr double kFastLinkBps = 1e9;  // shuffle nearly free
constexpr double kSlowLinkBps = 8e6;  // shuffle is the bottleneck

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Cell {
  const char* regime;  // "fastlink" | "slowlink"
  double link_bps;
  std::size_t nodes;
  double best_s = 1e9;
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t local_bytes = 0;
  std::string output{};
};

Status time_once(const std::string& input, Cell& c) {
  cluster::ClusterJob job;
  job.input = input;
  job.format = std::make_shared<ingest::FixedFormat>(kRecordBytes);
  job.make_app = [] {
    apps::TeraSortOptions opt;
    opt.key_bytes = 10;
    opt.record_bytes = kRecordBytes;
    return std::unique_ptr<core::Application>(new apps::TeraSortApp(opt));
  };
  job.config.mode = core::ExecMode::kIngestMR;
  job.config.merge_mode = core::MergeMode::kPWay;
  job.config.num_map_threads = 2;
  job.config.num_reduce_threads = 2;
  job.config.num_nodes = c.nodes;
  job.config.node_link_bps = c.link_bps;
  job.config.node_disk_bps = kDiskBps;
  job.chunk_bytes = 64 * 1024;
  job.record_bytes = kRecordBytes;
  const double t0 = now_s();
  SUPMR_ASSIGN_OR_RETURN(cluster::ClusterResult run,
                         cluster::run_cluster(job));
  c.best_s = std::min(c.best_s, now_s() - t0);
  c.shuffle_bytes = run.shuffle_bytes;
  c.local_bytes = run.local_bytes;
  c.output = std::move(run.output);
  return Status::Ok();
}

Status run(const std::string& out_path) {
  bench::print_banner(
      "bench_cluster — scale-up vs scale-out on a simulated fabric",
      "SupMR paper §VI.C.3 Fig. 7 (docs/cluster.md)");
  bench::BenchJson json("cluster");

  wload::TeraGenConfig tg;
  tg.num_records = kRecords;
  tg.seed = 1701;
  const std::string input = wload::teragen_to_string(tg);

  std::vector<Cell> cells;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    cells.push_back({"fastlink", kFastLinkBps, n});
    cells.push_back({"slowlink", kSlowLinkBps, n});
  }
  for (int i = 0; i < kIters; ++i) {
    for (Cell& c : cells) SUPMR_RETURN_IF_ERROR(time_once(input, c));
  }
  // Byte-check across every regime x node-count cell: the crossover below
  // is a bandwidth story, never an output difference.
  for (const Cell& c : cells) {
    if (c.output != cells[0].output) {
      return Status::Internal(std::string("cluster output diverges at ") +
                              c.regime + " nodes=" +
                              std::to_string(c.nodes));
    }
  }

  double fast1 = 0, fastbest = 1e9, slow1 = 0, slowbest = 1e9;
  for (const Cell& c : cells) {
    const std::string name = std::string("cluster_") + c.regime + "_n" +
                             std::to_string(c.nodes);
    std::printf(
        "%-20s %.3fs  (%llu bytes shuffled cross-node, %llu stayed local)\n",
        name.c_str(), c.best_s, (unsigned long long)c.shuffle_bytes,
        (unsigned long long)c.local_bytes);
    json.metric(name, c.best_s, "s",
                std::to_string((unsigned long long)c.shuffle_bytes) +
                    " bytes shuffled cross-node, best of " +
                    std::to_string(kIters));
    const bool fast = std::strcmp(c.regime, "fastlink") == 0;
    if (c.nodes == 1) (fast ? fast1 : slow1) = c.best_s;
    if (fast) fastbest = std::min(fastbest, c.best_s);
    else slowbest = std::min(slowbest, c.best_s);
  }

  // The two headline ratios: on the fast fabric the cluster's aggregate
  // ingest disks beat the single node (> 1 means scale-out won); on the
  // slow fabric the single node that never shuffles holds the lead (the
  // best multi-node time never beats n1, so this ratio stays at 1 and the
  // per-cell rows show the multi-node cells losing).
  const double fast_scaleout_speedup = fast1 / fastbest;
  const double slow_scaleup_holds = slow1 <= slowbest ? 1.0 : 0.0;
  std::printf(
      "\nfast fabric: best cluster config is %.2fx vs 1 node "
      "(aggregate ingest disks win)\n",
      fast_scaleout_speedup);
  std::printf(
      "slow fabric: 1 node %s the lead (shuffle on an 8 MB/s fabric "
      "costs more than it buys)\n",
      slow_scaleup_holds == 1.0 ? "keeps" : "LOSES");
  json.metric("fast_fabric_scaleout_speedup", fast_scaleout_speedup, "x",
              "1-node time / best multi-node time at 1 GB/s NICs — "
              "scale-out wins on aggregate ingest bandwidth");
  json.metric("slow_fabric_scaleup_holds", slow_scaleup_holds, "bool",
              "1 when no multi-node config beats 1 node at 8 MB/s NICs — "
              "the paper's scale-up claim");

  if (!json.write(out_path)) {
    return Status::IoError("cannot write " + out_path);
  }
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_cluster.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
  }
  const Status st = run(out);
  if (!st.ok()) {
    std::fprintf(stderr, "bench_cluster: %s\n", st.to_string().c_str());
    return 1;
  }
  return 0;
}
