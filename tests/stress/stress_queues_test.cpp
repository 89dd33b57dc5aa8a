// Multi-producer/consumer hammer tests for MpmcQueue under the seeded
// schedule shuffler. Each TEST_P runs once per seed in kStressSeeds,
// so a plain ctest pass covers three distinct injected schedules; set
// SUPMR_SCHED_SEED to replay one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "sched_fuzz.hpp"
#include "threading/mpmc_queue.hpp"

namespace supmr {
namespace {

class QueueStress : public ::testing::TestWithParam<std::uint64_t> {};

// ----------------------------------------------------------- mpmc queue

TEST_P(QueueStress, MpmcHammerPreservesEveryItem) {
  constexpr int kProducers = 3, kConsumers = 3, kPerProducer = 1500;
  test::SchedFuzz fuzz(GetParam());
  MpmcQueue<std::uint64_t> q;

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      test::SchedFuzz::Stream sched(fuzz, std::uint64_t(p));
      for (int i = 1; i <= kPerProducer; ++i) {
        sched.yield_point();
        ASSERT_TRUE(q.push(std::uint64_t(p) * 1000000 + std::uint64_t(i)));
      }
    });
  }

  std::atomic<std::uint64_t> total_count{0};
  std::atomic<std::uint64_t> total_sum{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      test::SchedFuzz::Stream sched(fuzz, 100 + std::uint64_t(c));
      // The queue is globally FIFO, so each consumer must see strictly
      // increasing sequence numbers per producer.
      std::map<std::uint64_t, std::uint64_t> last_seen;
      while (auto v = q.pop()) {
        sched.yield_point();
        const std::uint64_t producer = *v / 1000000, seq = *v % 1000000;
        auto [it, fresh] = last_seen.emplace(producer, seq);
        if (!fresh) {
          EXPECT_LT(it->second, seq) << "per-producer FIFO violated";
          it->second = seq;
        }
        total_sum += *v;
        ++total_count;
      }
    });
  }

  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (auto& c : consumers) c.join();

  EXPECT_EQ(total_count.load(), std::uint64_t(kProducers) * kPerProducer);
  std::uint64_t want = 0;
  for (int p = 0; p < kProducers; ++p)
    for (int i = 1; i <= kPerProducer; ++i)
      want += std::uint64_t(p) * 1000000 + std::uint64_t(i);
  EXPECT_EQ(total_sum.load(), want);
}

TEST_P(QueueStress, MpmcCloseReleasesBlockedConsumers) {
  test::SchedFuzz fuzz(GetParam());
  MpmcQueue<int> q;
  std::atomic<int> woke{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&, c] {
      test::SchedFuzz::Stream sched(fuzz, std::uint64_t(c));
      sched.yield_point();
      EXPECT_FALSE(q.pop().has_value());  // blocks until close
      ++woke;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.close();
  for (auto& c : consumers) c.join();
  EXPECT_EQ(woke.load(), 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueStress,
                         ::testing::ValuesIn(test::kStressSeeds));

}  // namespace
}  // namespace supmr
