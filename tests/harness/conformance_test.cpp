// Differential conformance lattice (docs/testing.md): every application runs
// across ExecMode × MergeMode × io × thread/chunk axes on
// seeded corpora, and each cell's canonicalized output must be byte-equal to
// the sequential reference runtime (src/ref/). A diverging cell writes a
// self-contained repro spec replayable with `supmr replay <file>`.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tests/harness/harness_util.hpp"

namespace supmr::harness {
namespace {

struct Axis {
  core::ExecMode mode;
  core::MergeMode merge;
  core::IoMode io;
};

// The mode × merge × io cross. The io axis runs every cell twice: once over
// copying reads and once over borrowed zero-copy views (MemDevice lends
// views like MmapDevice, so io=mmap cells carry borrowed spans into the map
// tasks).
std::vector<Axis> mode_merge_cross() {
  std::vector<Axis> axes;
  for (core::ExecMode mode :
       {core::ExecMode::kOriginal, core::ExecMode::kIngestMR}) {
    for (core::MergeMode merge :
         {core::MergeMode::kPairwise, core::MergeMode::kPWay}) {
      for (core::IoMode io : {core::IoMode::kRead, core::IoMode::kMmap}) {
        axes.push_back({mode, merge, io});
      }
    }
  }
  return axes;
}

void run_lattice(core::ReplaySpec base, const std::string& app_label) {
  for (const Axis& axis : mode_merge_cross()) {
    core::ReplaySpec spec = base;
    spec.mode = axis.mode;
    spec.merge_mode = axis.merge;
    spec.io = axis.io;
    expect_cell(spec, app_label + "-" +
                          std::string(core::exec_mode_name(axis.mode)) + "-" +
                          std::string(core::merge_mode_name(axis.merge)) +
                          "-" + std::string(core::io_mode_name(axis.io)));
  }
}

TEST(ConformanceLattice, WordCount) {
  run_lattice(spec_wordcount(1), "wordcount");
}

TEST(ConformanceLattice, ExternalWordCount) {
  // Spilling container: with a 16KB budget over a 160KB corpus every stripe
  // spills and re-merges, yet the bytes must match the in-memory oracle.
  run_lattice(spec_xwordcount(2), "xwordcount");
}

TEST(ConformanceLattice, Grep) {
  run_lattice(spec_grep(3), "grep");
}

TEST(ConformanceLattice, Histogram) {
  run_lattice(spec_histogram(4), "histogram");
}

TEST(ConformanceLattice, SortFlat) {
  run_lattice(spec_sort(5), "sort-flat");
}

TEST(ConformanceLattice, InvertedIndex) {
  run_lattice(spec_index(7), "index");
}

TEST(ConformanceLattice, PairCount) {
  run_lattice(spec_paircount(15), "paircount");
}

TEST(ConformanceLattice, DocTermCount) {
  run_lattice(spec_doctermcount(16), "doctermcount");
}

// Axis sweeps beyond the mode × merge cross: thread count and chunk size
// each get their own pass on the supmr mode. The thread axis changes the
// hash container's stripe count and the p-way merge's worker count; the
// bytes must not.
TEST(ConformanceLattice, ThreadAxis) {
  for (int threads : {1, 2, 5}) {
    core::ReplaySpec spec = spec_wordcount(8);
    spec.mode = core::ExecMode::kIngestMR;
    spec.merge_mode = core::MergeMode::kPWay;
    spec.threads = threads;
    expect_cell(spec, "wordcount-threads-" + std::to_string(threads));

    core::ReplaySpec sort = spec_sort(9);
    sort.mode = core::ExecMode::kIngestMR;
    sort.merge_mode = core::MergeMode::kPWay;
    sort.threads = threads;
    expect_cell(sort, "sort-threads-" + std::to_string(threads));
  }
}

TEST(ConformanceLattice, ChunkAxis) {
  // chunk_bytes=0 is the single-chunk path (whole input in one extent).
  for (std::size_t chunk : {std::size_t(0), std::size_t(8) * 1024,
                            std::size_t(48) * 1024}) {
    core::ReplaySpec spec = spec_histogram(10);
    spec.mode = core::ExecMode::kIngestMR;
    spec.merge_mode = core::MergeMode::kPWay;
    spec.chunk_bytes = chunk;
    expect_cell(spec, "histogram-chunk-" + std::to_string(chunk));
  }
}

TEST(ConformanceLattice, MmapFaultFallback) {
  // io=mmap with a fault plan: the FaultDevice/RetryingDevice wrappers do
  // not lend views, so every chunk silently falls back to retried copying
  // reads — the output must still match the clean oracle byte for byte.
  core::ReplaySpec spec = spec_wordcount(13);
  spec.mode = core::ExecMode::kIngestMR;
  spec.merge_mode = core::MergeMode::kPWay;
  spec.io = core::IoMode::kMmap;
  spec.chunk_bytes = 32 * 1024;
  spec.fault_plan = "seed=11;transient=0.05";
  spec.retry_attempts = 8;
  expect_cell(spec, "wordcount-mmap-fault-fallback");
}

TEST(ConformanceLattice, MmapChunkAxis) {
  // Borrowed views across the chunk-size sweep, including the whole-input
  // single-view cell (chunk_bytes=0).
  for (std::size_t chunk : {std::size_t(0), std::size_t(8) * 1024,
                            std::size_t(48) * 1024}) {
    core::ReplaySpec spec = spec_sort(14);
    spec.mode = core::ExecMode::kIngestMR;
    spec.merge_mode = core::MergeMode::kPWay;
    spec.io = core::IoMode::kMmap;
    spec.chunk_bytes = chunk;
    expect_cell(spec, "sort-mmap-chunk-" + std::to_string(chunk));
  }
}

TEST(ConformanceLattice, RetryAbsorbsTransientFaults) {
  // A low-rate transient fault plan under a generous retry budget must be
  // invisible in the output: same bytes as the clean reference.
  core::ReplaySpec spec = spec_wordcount(12);
  spec.mode = core::ExecMode::kIngestMR;
  spec.merge_mode = core::MergeMode::kPWay;
  spec.chunk_bytes = 32 * 1024;
  spec.fault_plan = "seed=7;transient=0.05";
  spec.retry_attempts = 8;
  expect_cell(spec, "wordcount-transient-retry");
}

}  // namespace
}  // namespace supmr::harness
