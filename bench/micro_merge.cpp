// Micro-benchmarks: sorting and merging kernels.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/rng.hpp"
#include "merge/introsort.hpp"
#include "merge/loser_tree.hpp"
#include "merge/pway.hpp"
#include "merge/sample_sort.hpp"
#include "tests/testdata.hpp"

namespace supmr::merge {
namespace {

// Shared seeded generator (tests/testdata.hpp): the differential merge
// suite draws byte-identical inputs, so bench and test disagree only on
// timing, never on data.
std::vector<std::uint64_t> random_data(std::size_t n, std::uint64_t seed) {
  return testdata::random_u64(n, seed);
}

void BM_Introsort(benchmark::State& state) {
  const auto base = random_data(state.range(0), 1);
  for (auto _ : state) {
    auto v = base;
    introsort(v.begin(), v.end());
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Introsort)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_StdSortReference(benchmark::State& state) {
  const auto base = random_data(state.range(0), 1);
  for (auto _ : state) {
    auto v = base;
    std::sort(v.begin(), v.end());
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StdSortReference)->Arg(1 << 14)->Arg(1 << 18);

void BM_LoserTreeMerge(benchmark::State& state) {
  const std::size_t runs = state.range(0);
  const std::size_t per_run = (1 << 18) / runs;
  std::vector<std::vector<std::uint64_t>> data(runs);
  for (std::size_t r = 0; r < runs; ++r) {
    data[r] = random_data(per_run, r + 1);
    std::sort(data[r].begin(), data[r].end());
  }
  std::vector<std::uint64_t> out(runs * per_run);
  for (auto _ : state) {
    std::vector<std::span<const std::uint64_t>> spans;
    for (auto& d : data) spans.emplace_back(d);
    LoserTree<std::uint64_t, std::less<std::uint64_t>> tree(
        spans, std::less<std::uint64_t>{});
    tree.drain(out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * out.size());
}
BENCHMARK(BM_LoserTreeMerge)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_PairwiseMergeSort(benchmark::State& state) {
  const auto base = random_data(1 << 18, 3);
  ThreadPool pool(4);
  for (auto _ : state) {
    auto v = base;
    pairwise_merge_sort(pool, std::span<std::uint64_t>(v),
                        std::less<std::uint64_t>{}, state.range(0));
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * base.size());
  state.SetLabel("runs=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PairwiseMergeSort)->Arg(8)->Arg(32);

void BM_ParallelSampleSort(benchmark::State& state) {
  const auto base = random_data(1 << 18, 3);
  ThreadPool pool(4);
  for (auto _ : state) {
    auto v = base;
    parallel_sample_sort(pool, std::span<std::uint64_t>(v),
                         std::less<std::uint64_t>{}, state.range(0));
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * base.size());
  state.SetLabel("runs=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ParallelSampleSort)->Arg(8)->Arg(32);

// The merge phase of a kPWay sort job over an unsorted container: run
// formation + one p-way merge round over all runs (scratch + copy-back).
void BM_MergePhaseGlobalPway(benchmark::State& state) {
  const std::size_t n = 1 << 21;
  const auto base = random_data(n, 42);
  ThreadPool pool(state.range(0));
  for (auto _ : state) {
    auto v = base;
    parallel_sample_sort(pool, std::span<std::uint64_t>(v),
                         std::less<std::uint64_t>{});
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_MergePhaseGlobalPway)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace supmr::merge

BENCHMARK_MAIN();
