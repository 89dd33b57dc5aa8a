// Differential lattice for the sharded-shuffle runtime (docs/cluster.md):
// every app that declares a shard protocol runs across the mode × merge
// axes — the per-node job geometry — and across the node-count axis
// {1, 2, 4}, and each cell's reassembled global output must be byte-equal
// to the sequential oracle over the FULL corpus. A diverging cell writes a
// self-contained repro spec replayable with `supmr cluster --spec=` (or
// `supmr replay`).
//
// Dedicated rows beyond the cross: an adaptive-mode subset, an io=mmap
// subset (nodes map borrowed views of the job's input), in-mapper combining
// nodes, and a throttled fabric (slow NICs + shared uplink — the limiters
// must delay, never corrupt).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "tests/harness/harness_util.hpp"

namespace supmr::harness {
namespace {

struct Axis {
  core::ExecMode mode;
  core::MergeMode merge;
  std::uint64_t nodes;
};

std::vector<Axis> cluster_cross() {
  std::vector<Axis> axes;
  for (core::ExecMode mode :
       {core::ExecMode::kOriginal, core::ExecMode::kIngestMR}) {
    for (core::MergeMode merge : {core::MergeMode::kPairwise,
                                  core::MergeMode::kPWay,
                                  core::MergeMode::kPartitioned}) {
      for (std::uint64_t nodes : {1, 2, 4}) {
        axes.push_back({mode, merge, nodes});
      }
    }
  }
  return axes;
}

// Runs one cluster cell and returns the outcome (assert-failing the test on
// runner errors); on divergence writes the repro spec like expect_cell.
ref::ConformanceOutcome run_cluster_cell_checked(const core::ReplaySpec& spec,
                                                 const std::string& name) {
  auto outcome = ref::run_cell(spec);
  if (!outcome.ok()) {
    ADD_FAILURE() << name << ": " << outcome.status().to_string();
    return {};
  }
  if (!outcome->match) {
    auto path = ref::write_repro(spec, repro_dir(), sanitize(name));
    ADD_FAILURE() << name << " diverged from the reference runtime:\n"
                  << outcome->diff << "\nreproduce with: supmr replay "
                  << (path.ok() ? *path
                                : "<repro write failed: " +
                                      path.status().to_string() + ">");
  }
  return std::move(outcome).value();
}

// The conservation invariant, checked on every cell alongside the byte
// check: every map-output byte either crossed a node boundary or stayed
// local — nothing is dropped or double-counted by the shuffle.
void expect_conservation(const ref::ConformanceOutcome& outcome,
                         const std::string& name) {
  EXPECT_EQ(outcome.cluster_shuffle_bytes + outcome.cluster_local_bytes,
            outcome.cluster_map_output_bytes)
      << name << ": shuffle + local != map output";
}

void run_cluster_lattice(std::function<core::ReplaySpec(std::uint64_t)> base,
                         const std::string& app_label) {
  std::uint64_t salt = 40;
  for (const Axis& axis : cluster_cross()) {
    core::ReplaySpec spec = base(salt++);
    spec.mode = axis.mode;
    spec.merge_mode = axis.merge;
    spec.merge_partitions =
        axis.merge == core::MergeMode::kPartitioned ? 5 : 0;
    spec.cluster_nodes = axis.nodes;
    const std::string name =
        app_label + "-" + std::string(core::exec_mode_name(axis.mode)) +
        "-" + std::string(core::merge_mode_name(axis.merge)) + "-n" +
        std::to_string(axis.nodes);
    ref::ConformanceOutcome outcome = run_cluster_cell_checked(spec, name);
    expect_conservation(outcome, name);
    EXPECT_EQ(outcome.cluster_nodes, axis.nodes) << name;
    // One node has no one to shuffle to: everything must stay local.
    if (axis.nodes == 1) {
      EXPECT_EQ(outcome.cluster_shuffle_bytes, 0u) << name;
    }
  }
  // Adaptive subset: the controller resizes chunks inside each node's
  // ingest; routing and merge must be unaffected.
  for (std::uint64_t nodes : {2, 4}) {
    core::ReplaySpec spec = base(salt++);
    spec.mode = core::ExecMode::kAdaptive;
    spec.cluster_nodes = nodes;
    const std::string name = app_label + "-adaptive-n" + std::to_string(nodes);
    expect_conservation(run_cluster_cell_checked(spec, name), name);
  }
  // Zero-copy subset: each node's chunks borrow views of its slice, itself
  // a borrowed view of the job's input, so a node maps the input in place.
  for (std::uint64_t nodes : {1, 2, 4}) {
    core::ReplaySpec spec = base(salt++);
    spec.mode = core::ExecMode::kIngestMR;
    spec.merge_mode = core::MergeMode::kPWay;
    spec.io = core::IoMode::kMmap;
    spec.cluster_nodes = nodes;
    const std::string name = app_label + "-mmap-n" + std::to_string(nodes);
    expect_conservation(run_cluster_cell_checked(spec, name), name);
  }
}

TEST(ClusterConformanceLattice, WordCount) {
  run_cluster_lattice([](std::uint64_t s) { return spec_wordcount(s); },
                      "cluster-wordcount");
}

TEST(ClusterConformanceLattice, ExternalWordCount) {
  run_cluster_lattice([](std::uint64_t s) { return spec_xwordcount(s); },
                      "cluster-xwordcount");
}

TEST(ClusterConformanceLattice, Sort) {
  run_cluster_lattice([](std::uint64_t s) { return spec_sort(s); },
                      "cluster-sort");
}

TEST(ClusterConformanceLattice, Grep) {
  run_cluster_lattice([](std::uint64_t s) { return spec_grep(s); },
                      "cluster-grep");
}

TEST(ClusterConformanceLattice, Histogram) {
  run_cluster_lattice([](std::uint64_t s) { return spec_histogram(s); },
                      "cluster-histogram");
}

TEST(ClusterConformanceLattice, PairCount) {
  run_cluster_lattice([](std::uint64_t s) { return spec_paircount(s); },
                      "cluster-paircount");
}

TEST(ClusterConformanceLattice, CombiningNodes) {
  // In-mapper combining inside each node's map phase — the node canonicals
  // are unchanged by construction, so the shuffle sees identical records.
  for (std::uint64_t nodes : {2, 4}) {
    core::ReplaySpec spec = spec_wordcount(70 + nodes);
    spec.container = core::ContainerMode::kCombining;
    spec.cluster_nodes = nodes;
    const std::string name = "cluster-wordcount-combining-n" +
                             std::to_string(nodes);
    expect_conservation(run_cluster_cell_checked(spec, name), name);
  }
}

TEST(ClusterConformanceLattice, ThrottledFabricIsByteIdentical) {
  // Slow NICs, a shared uplink, and throttled node disks must delay the
  // shuffle, never change it: same bytes as the unthrottled cell.
  core::ReplaySpec spec = spec_wordcount(80);
  spec.cluster_nodes = 4;
  spec.cluster_link_bps = 16u * 1024 * 1024;
  spec.cluster_uplink_bps = 32u * 1024 * 1024;
  spec.cluster_disk_bps = 64u * 1024 * 1024;
  const std::string name = "cluster-wordcount-throttled-n4";
  ref::ConformanceOutcome throttled = run_cluster_cell_checked(spec, name);
  expect_conservation(throttled, name);

  core::ReplaySpec fast = spec;
  fast.cluster_link_bps = 0;
  fast.cluster_uplink_bps = 0;
  fast.cluster_disk_bps = 0;
  ref::ConformanceOutcome unthrottled =
      run_cluster_cell_checked(fast, name + "-fast");
  EXPECT_EQ(throttled.sut_canonical, unthrottled.sut_canonical)
      << "throttling changed the output bytes";
  EXPECT_EQ(throttled.cluster_shuffle_bytes, unthrottled.cluster_shuffle_bytes)
      << "throttling changed the shuffle routing";
}

}  // namespace
}  // namespace supmr::harness
