// Unit tests for the threading substrate: latch, queue, pool, parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "threading/latch.hpp"
#include "threading/mpmc_queue.hpp"
#include "threading/thread_pool.hpp"

namespace supmr {
namespace {

// ---------------------------------------------------------------- latch

TEST(CountdownLatch, ReleasesAtZero) {
  CountdownLatch latch(3);
  EXPECT_FALSE(latch.try_wait());
  latch.count_down();
  latch.count_down(2);
  EXPECT_TRUE(latch.try_wait());
  latch.wait();  // does not block
}

TEST(CountdownLatch, OverCountClampsToZero) {
  CountdownLatch latch(1);
  latch.count_down(10);
  EXPECT_TRUE(latch.try_wait());
}

TEST(CountdownLatch, CrossThreadRelease) {
  CountdownLatch latch(4);
  std::atomic<int> before{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < 4; ++i) {
    workers.emplace_back([&] {
      ++before;
      latch.count_down();
    });
  }
  latch.wait();
  EXPECT_EQ(before.load(), 4);
  for (auto& w : workers) w.join();
}

// ----------------------------------------------------------- mpmc queue

TEST(MpmcQueue, PushPopBasic) {
  MpmcQueue<int> q;
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
}

TEST(MpmcQueue, CloseDrainsThenEnds) {
  MpmcQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_FALSE(q.push(8));
  EXPECT_EQ(q.pop(), 7);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MpmcQueue, ManyProducersManyConsumers) {
  constexpr int kPerProducer = 5000, kProducers = 4, kConsumers = 4;
  MpmcQueue<int> q;
  std::atomic<long long> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 1; i <= kPerProducer; ++i) q.push(i);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) sum += *v;
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (int c = 0; c < kConsumers; ++c) threads[kProducers + c].join();
  EXPECT_EQ(sum.load(),
            1LL * kProducers * kPerProducer * (kPerProducer + 1) / 2);
}

TEST(MpmcQueue, MovesOwnershipOfHeavyValues) {
  MpmcQueue<std::vector<char>> q;
  std::vector<char> big(1 << 20, 'x');
  const char* data = big.data();
  ASSERT_TRUE(q.push(std::move(big)));
  q.close();
  std::optional<std::vector<char>> out = q.pop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->data(), data);  // moved, not copied
}

// ---------------------------------------------------------- thread pool

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(pool.submit([&] { ++count; }));
  pool.shutdown();  // drains every accepted task before the join
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ShutdownDrainsThenRejectsSubmit) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(pool.submit([&] { ++count; }));
  pool.shutdown();
  EXPECT_EQ(count.load(), 10);  // queued tasks ran before the join
  EXPECT_FALSE(pool.submit([&] { ++count; }));
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, WaveAfterShutdownReportsFailureWithoutHanging) {
  // Regression: run_wave used to discard submit()'s return, so a wave
  // against a shut-down pool ran nothing and the caller never knew. Now the
  // failed submits count the latch down (no hang) and the wave returns
  // false; the _or_throw variants surface it for Status-less call sites.
  ThreadPool pool(2);
  pool.shutdown();
  std::atomic<int> count{0};
  std::vector<std::function<void(std::size_t)>> tasks;
  for (int i = 0; i < 4; ++i)
    tasks.push_back([&count](std::size_t) { ++count; });
  EXPECT_FALSE(pool.run_wave(tasks));
  EXPECT_EQ(count.load(), 0);
  EXPECT_THROW(pool.run_wave_or_throw(tasks), std::runtime_error);
  EXPECT_FALSE(parallel_for(
      pool, 10, [](std::size_t, std::size_t, std::size_t) {}));
  EXPECT_THROW(parallel_for_or_throw(
                   pool, 10, [](std::size_t, std::size_t, std::size_t) {}),
               std::runtime_error);
}

TEST(ThreadPool, WaveProvidesDistinctIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(8);
  std::vector<std::function<void(std::size_t)>> tasks;
  for (int i = 0; i < 8; ++i)
    tasks.push_back([&hits](std::size_t idx) { ++hits[idx]; });
  EXPECT_TRUE(pool.run_wave(tasks));
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, UnpooledWaveRunsAll) {
  std::atomic<int> count{0};
  std::vector<std::function<void(std::size_t)>> tasks;
  for (int i = 0; i < 5; ++i)
    tasks.push_back([&count](std::size_t) { ++count; });
  ThreadPool::run_wave_unpooled(tasks);
  EXPECT_EQ(count.load(), 5);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  EXPECT_TRUE(parallel_for(pool, hits.size(),
                           [&](std::size_t b, std::size_t e, std::size_t) {
                             for (std::size_t i = b; i < e; ++i) ++hits[i];
                           }));
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  EXPECT_TRUE(parallel_for(pool, 0,
                           [&](std::size_t, std::size_t, std::size_t) {
                             called = true;
                           }));
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace supmr
