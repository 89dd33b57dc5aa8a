// Fixed-size worker pool.
//
// The SupMR runtime restarts mapper "waves" once per ingest chunk. Creating
// and joining std::threads per round is exactly the thread overhead the paper
// measures for small chunk sizes — so the pool supports both modes:
//   * run_wave(): reuse pooled workers (every job's map, reduce and merge
//     waves), and
//   * run_wave_unpooled(): spawn-and-join raw threads (faithful to the
//     paper's "create thread / destroy thread" pseudo-code, used by benches
//     that want to measure that overhead).
//
// One pool instance may be shared by many concurrent jobs (the JobManager
// leases slices of it), so completion is tracked per wave, with a latch: a
// wave returns when *its* tasks finish, not when the whole pool goes idle.
#pragma once

#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "threading/latch.hpp"
#include "threading/mpmc_queue.hpp"

namespace supmr {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (>=1). Workers are joined in the destructor.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueues a task. Tasks must not throw (CP: tasks own their errors; a
  // throwing task aborts via std::terminate in the worker). Returns false —
  // and drops the task — if the pool has been shut down. A caller that must
  // know when its tasks finish counts them itself (run_wave's latch).
  bool submit(std::function<void()> task);

  // Closes the task queue, lets the workers drain every already-queued task,
  // and joins them. Idempotent; the destructor calls it. After shutdown(),
  // submit() returns false.
  void shutdown();

  // Runs `tasks` as one wave on pooled workers: submits all and waits on a
  // per-wave latch. `worker_index` (0-based within the wave) is passed to
  // each task.
  //
  // Returns false if any submit() failed (pool already shut down): the
  // remaining tasks did NOT run. Callers with a Status channel must
  // propagate; callers without one use run_wave_or_throw().
  [[nodiscard]] bool run_wave(
      const std::vector<std::function<void(std::size_t)>>& tasks);

  // run_wave() for call sites without an error channel (merge kernels that
  // return MergeStats, benches): a dropped wave there is an unrecoverable
  // lifecycle bug, so it throws std::runtime_error instead.
  void run_wave_or_throw(
      const std::vector<std::function<void(std::size_t)>>& tasks);

  // Spawn-and-join raw std::threads, one per task — the paper's per-round
  // thread lifecycle. Measurably slower for many small rounds.
  static void run_wave_unpooled(
      const std::vector<std::function<void(std::size_t)>>& tasks);

 private:
  void worker_loop();

  MpmcQueue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
};

// Statically partitions [0, n) across `pool.size()` workers and runs
// fn(begin, end, worker_index) for each non-empty range. Returns false if
// the wave was dropped because the pool is shut down (see run_wave).
[[nodiscard]] bool parallel_for(ThreadPool& pool, std::size_t n,
                                const std::function<void(std::size_t,
                                                         std::size_t,
                                                         std::size_t)>& fn);

// parallel_for() for call sites without an error channel; throws
// std::runtime_error if the pool is shut down.
void parallel_for_or_throw(ThreadPool& pool, std::size_t n,
                           const std::function<void(std::size_t, std::size_t,
                                                    std::size_t)>& fn);

}  // namespace supmr
