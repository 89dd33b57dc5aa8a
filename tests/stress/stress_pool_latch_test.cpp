// ThreadPool shutdown and wave accounting, CountdownLatch wakeup
// interleavings, and ProcStatSampler lifecycle, under the seeded schedule
// shuffler.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/proc_sampler.hpp"
#include "sched_fuzz.hpp"
#include "threading/latch.hpp"
#include "threading/thread_pool.hpp"

namespace supmr {
namespace {

class PoolStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoolStress, ShutdownRacingSubmittersLosesNoAcceptedTask) {
  test::SchedFuzz fuzz(GetParam());
  std::atomic<int> accepted{0}, executed{0};
  {
    ThreadPool pool(2);
    std::vector<std::thread> submitters;
    for (int s = 0; s < 2; ++s) {
      submitters.emplace_back([&, s] {
        test::SchedFuzz::Stream sched(fuzz, std::uint64_t(s));
        for (int i = 0; i < 200; ++i) {
          sched.yield_point();
          if (pool.submit([&executed] { ++executed; }))
            ++accepted;
          else
            break;  // pool shut down underneath us — allowed
        }
      });
    }
    test::SchedFuzz::Stream sched(fuzz, 7);
    for (int i = 0; i < 8; ++i) sched.yield_point();
    pool.shutdown();  // races the submitters
    for (auto& t : submitters) t.join();
  }
  // Every accepted task ran (shutdown drains the queue before joining).
  EXPECT_EQ(executed.load(), accepted.load());
}

TEST_P(PoolStress, WaveStormKeepsCountsExact) {
  test::SchedFuzz fuzz(GetParam());
  test::SchedFuzz::Stream sched(fuzz, 0);
  ThreadPool pool(4);
  std::atomic<int> hits{0};
  for (int wave = 0; wave < 50; ++wave) {
    std::vector<std::function<void(std::size_t)>> tasks;
    for (int i = 0; i < 8; ++i)
      tasks.push_back([&hits](std::size_t) { ++hits; });
    ASSERT_TRUE(pool.run_wave(tasks));
    ASSERT_EQ(hits.load(), (wave + 1) * 8);  // per-wave latch is exact
    sched.yield_point();
  }
}

// ------------------------------------------------------------- latch

// The lost-wakeup audit for CountdownLatch: decrement and notify are under
// the mutex, so a wait() can never sleep through the final count_down. Run
// many short-lived latches so the release interleaving lands everywhere.
TEST_P(PoolStress, LatchCountDownRacesWait) {
  test::SchedFuzz fuzz(GetParam());
  for (int round = 0; round < 200; ++round) {
    CountdownLatch latch(3);
    std::vector<std::thread> counters;
    for (int c = 0; c < 3; ++c) {
      counters.emplace_back([&, c] {
        test::SchedFuzz::Stream sched(fuzz, std::uint64_t(round * 8 + c));
        sched.yield_point();
        latch.count_down();
      });
    }
    std::thread waiter([&] {
      latch.wait();
      EXPECT_TRUE(latch.try_wait());
    });
    latch.wait();  // main waits too: two concurrent waiters
    for (auto& t : counters) t.join();
    waiter.join();
  }
}

// ------------------------------------------------------- proc sampler

// Lifecycle hardening: double start() used to assign over a joinable
// std::thread (std::terminate); stop() without start(), double stop(), and
// stop-then-restart must all be safe. A restart begins a new trace, so its
// times never go backwards (they used to restart from 0 partway through the
// old series).
TEST(ProcSamplerLifecycle, StartStopEdgeCasesDoNotCrash) {
  {
    core::ProcStatSampler sampler(0.001);
    (void)sampler.stop();  // stop before start: no-op, empty trace
  }
  {
    core::ProcStatSampler sampler(0.001);
    sampler.start();
    sampler.start();  // idempotent while running (pre-fix: terminate)
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    (void)sampler.stop();
    (void)sampler.stop();  // double stop: no-op
    sampler.start();       // restart after stop
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    const TimeSeries trace = sampler.stop();
    for (std::size_t i = 1; i < trace.samples(); ++i)
      EXPECT_LE(trace.time(i - 1), trace.time(i)) << "sample " << i;
  }
  {
    core::ProcStatSampler sampler(0.001);
    sampler.start();
    // Destruction while running must stop and join, not leak or terminate.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolStress,
                         ::testing::ValuesIn(test::kStressSeeds));

}  // namespace
}  // namespace supmr
