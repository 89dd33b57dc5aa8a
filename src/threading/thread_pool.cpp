#include "threading/thread_pool.hpp"

#include <cassert>

#include "obs/macros.hpp"

namespace supmr {

ThreadPool::ThreadPool(std::size_t num_threads) {
  assert(num_threads >= 1);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  queue_.close();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
}

bool ThreadPool::submit(std::function<void()> task) {
  return queue_.push(std::move(task));
}

void ThreadPool::worker_loop() {
  SUPMR_TRACE_THREAD_NAME("pool.worker");
  while (auto task = queue_.pop()) {
    SUPMR_TRACE_SCOPE("pool", "pool.task");
    (*task)();
  }
}

bool ThreadPool::run_wave(
    const std::vector<std::function<void(std::size_t)>>& tasks) {
  SUPMR_TRACE_SCOPE_VAR(span, "pool", "pool.wave");
  SUPMR_TRACE_SET_ARG(span, "tasks", tasks.size());
  SUPMR_COUNTER_ADD("pool.waves", 1);
  SUPMR_COUNTER_ADD("pool.tasks", tasks.size());
  if (tasks.empty()) return true;
  // Per-wave completion: with several jobs leasing the same pool, this wave
  // waits for its own tasks only, never for another job's.
  CountdownLatch latch(tasks.size());
  bool ok = true;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const bool submitted = submit([&tasks, &latch, i] {
      tasks[i](i);
      latch.count_down();
    });
    if (!submitted) {
      // The pool is shut down: this task will never run. Count it down
      // ourselves so the wait below cannot hang, and report the drop.
      latch.count_down();
      ok = false;
    }
  }
  latch.wait();
  return ok;
}

void ThreadPool::run_wave_or_throw(
    const std::vector<std::function<void(std::size_t)>>& tasks) {
  if (!run_wave(tasks))
    throw std::runtime_error(
        "ThreadPool::run_wave: wave dropped, pool is shut down");
}

void ThreadPool::run_wave_unpooled(
    const std::vector<std::function<void(std::size_t)>>& tasks) {
  SUPMR_TRACE_SCOPE_VAR(span, "pool", "pool.wave_unpooled");
  SUPMR_TRACE_SET_ARG(span, "tasks", tasks.size());
  SUPMR_COUNTER_ADD("pool.waves", 1);
  SUPMR_COUNTER_ADD("pool.tasks", tasks.size());
  std::vector<std::thread> threads;
  threads.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    threads.emplace_back([&tasks, i] { tasks[i](i); });
  for (auto& t : threads) t.join();
}

bool parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)>& fn) {
  const std::size_t workers = pool.size();
  const std::size_t per = (n + workers - 1) / workers;
  std::vector<std::function<void(std::size_t)>> tasks;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = w * per;
    if (begin >= n) break;
    const std::size_t end = std::min(begin + per, n);
    tasks.push_back([&fn, begin, end](std::size_t idx) { fn(begin, end, idx); });
  }
  return pool.run_wave(tasks);
}

void parallel_for_or_throw(ThreadPool& pool, std::size_t n,
                           const std::function<void(std::size_t, std::size_t,
                                                    std::size_t)>& fn) {
  if (!parallel_for(pool, n, fn))
    throw std::runtime_error(
        "parallel_for: wave dropped, pool is shut down");
}

}  // namespace supmr
