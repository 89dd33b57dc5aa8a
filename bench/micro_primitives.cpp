// Micro-benchmarks: threading primitives on the pipeline's hot paths.
#include <benchmark/benchmark.h>

#include "threading/latch.hpp"
#include "threading/mpmc_queue.hpp"
#include "threading/thread_pool.hpp"

namespace supmr {
namespace {

void BM_MpmcPushPop(benchmark::State& state) {
  MpmcQueue<std::uint64_t> q;
  std::uint64_t v = 0;
  for (auto _ : state) {
    q.push(v++);
    benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpmcPushPop);

void BM_PoolWave(benchmark::State& state) {
  // Cost of dispatching one mapper wave on pooled workers.
  ThreadPool pool(4);
  std::vector<std::function<void(std::size_t)>> tasks;
  for (int i = 0; i < 4; ++i)
    tasks.push_back([](std::size_t) { benchmark::ClobberMemory(); });
  for (auto _ : state) pool.run_wave_or_throw(tasks);
  state.SetItemsProcessed(state.iterations() * tasks.size());
}
BENCHMARK(BM_PoolWave)->Unit(benchmark::kMicrosecond);

void BM_UnpooledWave(benchmark::State& state) {
  // The paper's per-round thread create/destroy — compare with BM_PoolWave.
  std::vector<std::function<void(std::size_t)>> tasks;
  for (int i = 0; i < 4; ++i)
    tasks.push_back([](std::size_t) { benchmark::ClobberMemory(); });
  for (auto _ : state) ThreadPool::run_wave_unpooled(tasks);
  state.SetItemsProcessed(state.iterations() * tasks.size());
}
BENCHMARK(BM_UnpooledWave)->Unit(benchmark::kMicrosecond);

void BM_LatchRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    CountdownLatch latch(1);
    latch.count_down();
    latch.wait();
  }
}
BENCHMARK(BM_LatchRoundTrip);

}  // namespace
}  // namespace supmr

BENCHMARK_MAIN();
