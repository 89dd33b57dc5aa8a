// Multi-tenant job runtime: one process, many concurrent MapReduceJobs on
// shared, leased resources (ROADMAP item 1, the "millions of users" story).
//
// The JobManager owns the process-wide worker ThreadPool, a shared
// ChunkBufferPool for every job's ingest pipeline, and a byte-denominated
// memory budget. Jobs enter through submit(), which performs admission
// control (validation, budget check, bounded queue) and returns a JobHandle
// immediately; a scheduler dispatches queued jobs in priority order
// (FIFO within a priority, no backfill — a large job at the head cannot be
// starved by small ones slipping past it) whenever leased resources free
// up. Each running job holds a ResourceLease — an RAII grant of thread
// slots and budget bytes that returns to the pool when the job finishes,
// whatever the outcome.
//
// The split mirrors YTsaurus's scheduler/controller design: the manager is
// the scheduler (admission, leases, ordering) while MapReduceJob stays the
// controller that knows how to run one job; the manager never reaches into
// job internals beyond attach_runtime(). Lease threads bound a job's map
// wave width (the config handed to the job is rewritten to the lease size)
// and act as admission weights; they are not a hard CPU partition — reduce
// and merge waves share the pool's workers with everyone else. Memory
// leases are admission accounting only.
//
// Drain ordering (also see docs/runtime.md): drain() (1) atomically stops
// admissions — later submits fail FailedPrecondition — then (2) lets the
// already-admitted queue schedule and every running job finish, then
// (3) joins all job driver threads. The destructor drains, then shuts the
// worker pool down. Shutdown therefore never drops a wave — the run_wave
// false path exists for code that bypasses the manager.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "core/job.hpp"
#include "core/job_config.hpp"
#include "ingest/chunk.hpp"
#include "ingest/source.hpp"
#include "threading/thread_pool.hpp"

namespace supmr::runtime {

class JobManager;

// RAII grant of JobManager resources (thread slots + budget bytes). Held by
// the manager for a job's lifetime; returns the resources on destruction.
// Move-only.
class ResourceLease {
 public:
  ResourceLease() = default;
  ResourceLease(ResourceLease&& other) noexcept { *this = std::move(other); }
  ResourceLease& operator=(ResourceLease&& other) noexcept;
  ~ResourceLease() { release(); }

  ResourceLease(const ResourceLease&) = delete;
  ResourceLease& operator=(const ResourceLease&) = delete;

  bool active() const { return mgr_ != nullptr; }
  std::size_t threads() const { return threads_; }
  std::size_t memory_bytes() const { return memory_bytes_; }

  // Returns the resources early (idempotent; the destructor calls it).
  void release();

 private:
  friend class JobManager;
  ResourceLease(JobManager* mgr, std::size_t threads,
                std::size_t memory_bytes)
      : mgr_(mgr), threads_(threads), memory_bytes_(memory_bytes) {}

  JobManager* mgr_ = nullptr;
  std::size_t threads_ = 0;
  std::size_t memory_bytes_ = 0;
};

enum class JobState { kQueued, kRunning, kSucceeded, kFailed };

std::string_view job_state_name(JobState state);

// Shared view of one submitted job. Cheap to copy; outlives the manager's
// interest in the job, so callers can keep handles past drain().
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return shared_ != nullptr; }
  std::uint64_t id() const;
  const std::string& name() const;
  JobState state() const;

  // Blocks until the job reaches a terminal state; returns its result (or
  // the failure Status). Safe to call from several threads and repeatedly.
  StatusOr<core::JobResult> wait() const;

  // Seconds the job spent queued before dispatch (0 until running).
  double queue_wait_s() const;

 private:
  friend class JobManager;
  struct Shared;
  std::shared_ptr<Shared> shared_;
};

// One admission request. `app` and `source` must outlive the job (the
// manager runs the job asynchronously — keep them alive until
// handle.wait() returns or drain() completes).
struct JobRequest {
  core::Application* app = nullptr;
  const ingest::IngestSource* source = nullptr;
  core::JobConfig config;
  std::string name;

  // Higher dispatches first; ties dispatch in submission order.
  int priority = 0;
  // Thread slots to lease; 0 = max(config map, reduce threads). The leased
  // count replaces the config's map/reduce thread counts.
  std::size_t threads = 0;
  // Budget bytes to lease; 0 = kDefaultJobMemoryBytes.
  std::size_t memory_bytes = 0;
};

class JobManager {
 public:
  static constexpr std::size_t kDefaultJobMemoryBytes = 64ull << 20;

  struct Options {
    // Workers in the shared pool; also the total leasable thread slots.
    std::size_t num_threads = core::JobConfig::default_threads();
    // Total leasable memory, bytes.
    std::size_t memory_budget_bytes = 1ull << 30;
    // Bounded admission queue: submits beyond this fail ResourceExhausted.
    std::size_t max_queued = 1024;
    // Shared ChunkBufferPool freelist cap. 0 = derived from the lease
    // geometry: every concurrent job needs at least one thread slot, so at
    // most num_threads pipelines run at once, each wanting
    // kBuffersPerPipeline warm buffers.
    std::size_t chunk_buffer_cap = 0;
  };

  JobManager();
  explicit JobManager(Options options);
  ~JobManager();  // drain(), then pool shutdown

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  // Admission. Fails without queueing when:
  //   * draining/drained            -> FailedPrecondition
  //   * app/source null             -> InvalidArgument
  //   * resolved thread lease == 0  -> InvalidArgument
  //   * thread lease > pool size    -> InvalidArgument (can never dispatch)
  //   * memory lease > total budget -> ResourceExhausted (can never fit)
  //   * admission queue full        -> ResourceExhausted
  StatusOr<JobHandle> submit(JobRequest request);

  // Stops admissions, runs the queue dry, waits for every running job, and
  // joins the driver threads. Idempotent; the destructor calls it.
  void drain();

  // Snapshot introspection (also exported as jobmgr.* gauges).
  std::size_t queue_depth() const;
  std::size_t running_jobs() const;
  std::size_t threads_leased() const;
  std::size_t memory_leased_bytes() const;
  bool draining() const;

  const Options& options() const { return options_; }
  ThreadPool& pool() { return pool_; }
  ingest::ChunkBufferPool& chunk_buffers() { return buffers_; }

 private:
  friend class ResourceLease;

  struct Pending;

  // Dispatches every queued job the free resources allow, in priority
  // order. Caller holds mu_.
  void maybe_dispatch_locked();
  // Joins driver threads whose jobs have finished. Caller holds mu_.
  void reap_drivers_locked();
  void run_job(std::shared_ptr<Pending> job);
  void return_resources(std::size_t threads, std::size_t memory_bytes);
  void update_gauges_locked();

  Options options_;
  ThreadPool pool_;
  ingest::ChunkBufferPool buffers_;

  mutable std::mutex mu_;
  std::condition_variable state_cv_;  // queue/running/driver transitions
  std::deque<std::shared_ptr<Pending>> queued_;
  std::vector<std::thread> drivers_;     // one per dispatched job, joinable
  std::vector<std::size_t> done_drivers_;  // indices into drivers_ to reap
  std::size_t running_ = 0;
  std::size_t threads_leased_ = 0;
  std::size_t memory_leased_ = 0;
  std::uint64_t next_id_ = 1;
  bool draining_ = false;
};

}  // namespace supmr::runtime
