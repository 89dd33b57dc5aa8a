// Table II (sort block): chunk none (pairwise merge) vs 1 GB (p-way merge)
// on the 60 GB TeraSort input, at paper scale via the calibrated simulation.
#include "bench/bench_util.hpp"
#include "perfmodel/experiments.hpp"

using namespace supmr;
using namespace supmr::perfmodel;

int main() {
  bench::print_banner(
      "Table II -- Sort: mitigate merge bottleneck (60 GB)",
      "SupMR paper, Table II lower block; 1.46x total, 3.12x merge speedup");

  std::printf("paper reference rows:\n");
  std::printf("  none  397.31s  read 182.78s  map 6.33s  reduce 7.72s  merge 191.23s\n");
  std::printf("  1GB   272.58s  [read+map 196.86s]       reduce 9.04s  merge 61.14s\n\n");

  std::printf("measured (simulated at paper scale):\n%s\n",
              PhaseBreakdown::table_header().c_str());
  auto rows = table2_sort();
  for (const auto& row : rows) bench::print_row(row.label, row.result.phases);

  const auto& none = rows[0].result.phases;
  const auto& gb1 = rows[1].result.phases;
  std::printf("\ntime-to-result speedup: %.2fx (paper: 1.46x)\n",
              none.total_s / gb1.total_s);
  std::printf("merge phase speedup:    %.2fx (paper: 3.12x)\n",
              none.merge_s / gb1.merge_s);
  std::printf("merge rounds: pairwise %llu -> p-way %llu\n",
              (unsigned long long)rows[0].result.merge_rounds,
              (unsigned long long)rows[1].result.merge_rounds);
  std::printf("mean CPU utilization: none %.1f%%  1GB %.1f%%\n",
              rows[0].result.mean_utilization,
              rows[1].result.mean_utilization);
  return 0;
}
