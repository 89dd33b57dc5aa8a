// Unbounded blocking multi-producer/multi-consumer queue.
//
// The thread pool's task channel and the ingest pipeline's chunk channel.
// Mutex-based: pool tasks are coarse (a whole input split or merge run) and
// a pipeline moves one chunk per map round, so queue overhead is noise
// relative to the work — correctness and simplicity win here (CP.2/CP.3:
// minimize shared writable state, guard what remains). The queue bounds
// nothing; the pipeline bounds its chunks with a semaphore before it reads.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace supmr {

template <typename T>
class MpmcQueue {
 public:
  MpmcQueue() = default;
  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  // Never blocks. Returns false if the queue was closed, in which case
  // `value` is dropped — items that were already queued before the close
  // are never lost and remain poppable.
  bool push(T value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  // Blocks while empty. Returns nullopt once the queue is closed AND drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  // After close(), pushes fail and pops drain the remaining items then
  // return nullopt. Idempotent; any thread may call it.
  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace supmr
