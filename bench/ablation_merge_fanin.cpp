// Ablation: merge fan-in sweep (paper §IV / Conclusion 3).
//
// Pairwise merge cost grows with log2(fan-in) — each extra doubling of runs
// adds a full re-scan of the data — while the p-way merge stays a single
// pass. The gap IS the paper's merge speedup, and it widens with fan-in
// ("the benefit of the sort modification depends on the number of merge
// rounds it avoids").
#include <algorithm>

#include "bench/bench_util.hpp"
#include "merge/sample_sort.hpp"
#include "perfmodel/experiments.hpp"
#include "tests/testdata.hpp"

using namespace supmr;
using namespace supmr::perfmodel;

namespace {

double merge_seconds(const merge::MergeStats& stats) {
  double s = 0.0;
  for (const auto& r : stats.rounds) s += r.wall_s;
  return s;
}

// Real-mode twin: the two merges the runtime ships, pairwise (iterative,
// halving parallelism) and the parallel p-way merge, over the same 2M 8-byte
// keys cut into 2, 8 and 64 sorted runs. Times cover the merge rounds only,
// not run formation.
bool real_merge_sweep() {
  std::printf("\nreal wall-clock merge sweep (2M keys, 4 threads):\n");
  std::printf("  %6s %8s %12s %8s %12s\n", "runs", "rounds", "pairwise",
              "rounds", "p-way");
  const auto base = testdata::random_u64(2'000'000, 17);
  ThreadPool pool(4);
  for (std::size_t runs : {2u, 8u, 64u}) {
    auto pairwise = base;
    const merge::MergeStats ps = merge::pairwise_merge_sort(
        pool, std::span<std::uint64_t>(pairwise.data(), pairwise.size()),
        std::less<std::uint64_t>{}, runs);
    auto pway = base;
    const merge::MergeStats ws = merge::parallel_sample_sort(
        pool, std::span<std::uint64_t>(pway.data(), pway.size()),
        std::less<std::uint64_t>{}, runs);
    if (!std::is_sorted(pairwise.begin(), pairwise.end()) || pway != pairwise) {
      std::fprintf(stderr, "merge sweep: wrong output at %zu runs\n", runs);
      return false;
    }
    std::printf("  %6zu %8zu %11.3fs %8zu %11.3fs\n", runs, ps.num_rounds(),
                merge_seconds(ps), ws.num_rounds(), merge_seconds(ws));
  }
  return true;
}

}  // namespace

int main() {
  bench::print_banner(
      "Ablation -- merge fan-in sweep (60 GB sort)",
      "SupMR paper, Section IV and Conclusion 3 (merge rounds avoided)");

  const auto d = wload::paper_sort_dataset();
  auto points = merge_fanin_sweep(sort_model(d), d, {2, 4, 8, 16, 32, 64, 128});
  std::printf("  %6s %14s %12s %10s\n", "runs", "pairwise", "p-way",
              "speedup");
  for (const auto& p : points) {
    std::printf("  %6zu %13.2fs %11.2fs %9.2fx\n", p.runs,
                p.pairwise_merge_s, p.pway_merge_s,
                p.pairwise_merge_s / p.pway_merge_s);
  }
  std::printf("\nexpected shape: pairwise grows ~log2(runs); p-way flat;\n"
              "at the paper's fan-in (64) the ratio lands near 3.1x.\n");
  return real_merge_sweep() ? 0 : 1;
}
