// ThreadPool pending-counter accounting, CountdownLatch/Barrier wakeup
// interleavings, and ProcStatSampler lifecycle, under the seeded schedule
// shuffler. The pool tests are the regression suite for the submit()/
// wait_all() race fixes in src/threading/thread_pool.cpp.
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

// submit() racing wait_all() from several threads: the counter must never
// underflow (debug assert in worker_loop) and every wait_all() must
// eventually return — a notify outside pending_mu_ would occasionally lose
// a wakeup here and trip the ctest TIMEOUT.
TEST_P(PoolStress, SubmitRacesWaitAllWithoutUnderflowOrLostWakeup) {
  constexpr int kSubmitters = 3, kPerSubmitter = 300;
  test::SchedFuzz fuzz(GetParam());
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  std::atomic<bool> done{false};

  std::thread waiter([&] {
    test::SchedFuzz::Stream sched(fuzz, 99);
    while (!done.load(std::memory_order_acquire)) {
      pool.wait_all();  // must always return; transient counts are fine
      sched.yield_point();
    }
  });

  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      test::SchedFuzz::Stream sched(fuzz, std::uint64_t(s));
      for (int i = 0; i < kPerSubmitter; ++i) {
        sched.yield_point();
        ASSERT_TRUE(pool.submit([&executed] { ++executed; }));
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.wait_all();
  EXPECT_EQ(executed.load(), kSubmitters * kPerSubmitter);
  done.store(true, std::memory_order_release);
  waiter.join();
}

// Regression for the submit-vs-shutdown pending leak: a submit() rejected by
// a closed queue must roll back the pending counter, or this wait_all()
// blocks forever on a task that will never run.
TEST(ThreadPoolLifecycle, RejectedSubmitDoesNotWedgeWaitAll) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(pool.submit([&] { ++executed; }));
  pool.shutdown();  // drains queued tasks, joins workers
  EXPECT_EQ(executed.load(), 8);
  EXPECT_FALSE(pool.submit([&] { ++executed; }));  // dropped, counter rolled back
  pool.wait_all();  // pre-fix: hangs on the leaked pending count
  EXPECT_EQ(executed.load(), 8);
  pool.shutdown();  // idempotent
}

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

TEST_P(PoolStress, BarrierGenerationsStayInLockstep) {
  constexpr int kParties = 4, kGenerations = 100;
  test::SchedFuzz fuzz(GetParam());
  Barrier barrier(kParties);
  std::atomic<int> serial{0};
  std::vector<std::atomic<int>> arrivals(kGenerations);
  std::vector<std::thread> workers;
  for (int p = 0; p < kParties; ++p) {
    workers.emplace_back([&, p] {
      test::SchedFuzz::Stream sched(fuzz, std::uint64_t(p));
      for (int g = 0; g < kGenerations; ++g) {
        sched.yield_point();
        ++arrivals[g];
        // Everyone must have arrived at generation g before anyone passes it.
        if (barrier.arrive_and_wait()) ++serial;
        EXPECT_EQ(arrivals[g].load(), kParties);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(serial.load(), kGenerations);
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
