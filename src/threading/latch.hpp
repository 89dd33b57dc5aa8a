// Countdown latch.
//
// The map engine runs a wave of mapper tasks per round and must wait for the
// whole wave before starting the next round (the paper's "loop for each
// chunk"); ThreadPool::run_wave counts each wave down on one latch. Mutex +
// condition_variable — uncontended on the hot path since waits happen once
// per round, not per record.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>

namespace supmr {

class CountdownLatch {
 public:
  explicit CountdownLatch(std::size_t count) : count_(count) {}

  CountdownLatch(const CountdownLatch&) = delete;
  CountdownLatch& operator=(const CountdownLatch&) = delete;

  // Decrements the count; wakes waiters when it reaches zero.
  //
  // Lost-wakeup audit: the decrement and the notify_all() must both happen
  // while mu_ is held — a "fast path" that decrements an atomic and notifies
  // without the lock can interleave between a wait()'s predicate check
  // (sees count_ > 0) and its sleep, and that waiter never wakes. Every
  // mutation path in this class stays under the mutex for that reason;
  // tests/stress/stress_pool_latch_test.cpp hammers this interleaving.
  void count_down(std::size_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    count_ = (n >= count_) ? 0 : count_ - n;
    if (count_ == 0) cv_.notify_all();
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return count_ == 0; });
  }

  bool try_wait() {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t count_;
};

}  // namespace supmr
