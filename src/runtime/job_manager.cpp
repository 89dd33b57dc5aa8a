#include "runtime/job_manager.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "common/logging.hpp"
#include "obs/macros.hpp"

namespace supmr::runtime {

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

std::string_view job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kSucceeded: return "succeeded";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

// ----------------------------------------------------------- ResourceLease

ResourceLease& ResourceLease::operator=(ResourceLease&& other) noexcept {
  if (this != &other) {
    release();
    mgr_ = other.mgr_;
    threads_ = other.threads_;
    memory_bytes_ = other.memory_bytes_;
    other.mgr_ = nullptr;
    other.threads_ = 0;
    other.memory_bytes_ = 0;
  }
  return *this;
}

void ResourceLease::release() {
  // Locks the manager's mutex — never call on an active lease while holding
  // it (the manager's internal paths disarm the lease directly instead).
  if (mgr_ == nullptr) return;
  JobManager* mgr = mgr_;
  mgr_ = nullptr;
  mgr->return_resources(threads_, memory_bytes_);
}

// --------------------------------------------------------------- JobHandle

struct JobHandle::Shared {
  std::uint64_t id = 0;
  std::string name;

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  JobState state = JobState::kQueued;
  // StatusOr has no default constructor, hence the optional wrapper.
  std::optional<StatusOr<core::JobResult>> result;
  double queue_wait_s = 0.0;
};

std::uint64_t JobHandle::id() const { return shared_ ? shared_->id : 0; }

const std::string& JobHandle::name() const {
  static const std::string kEmpty;
  return shared_ ? shared_->name : kEmpty;
}

JobState JobHandle::state() const {
  if (!shared_) return JobState::kFailed;
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->state;
}

StatusOr<core::JobResult> JobHandle::wait() const {
  if (!shared_) return Status::FailedPrecondition("empty JobHandle");
  std::unique_lock<std::mutex> lock(shared_->mu);
  shared_->cv.wait(lock, [&] { return shared_->result.has_value(); });
  return *shared_->result;
}

double JobHandle::queue_wait_s() const {
  if (!shared_) return 0.0;
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->queue_wait_s;
}

// ------------------------------------------------------------- GraphHandle

struct GraphHandle::Shared {
  std::uint64_t id = 0;
  std::string name;

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  std::optional<StatusOr<graph::GraphResult>> result;
};

std::uint64_t GraphHandle::id() const { return shared_ ? shared_->id : 0; }

const std::string& GraphHandle::name() const {
  static const std::string kEmpty;
  return shared_ ? shared_->name : kEmpty;
}

StatusOr<graph::GraphResult> GraphHandle::wait() const {
  if (!shared_) return Status::FailedPrecondition("empty GraphHandle");
  std::unique_lock<std::mutex> lock(shared_->mu);
  shared_->cv.wait(lock, [&] { return shared_->result.has_value(); });
  return *shared_->result;
}

// -------------------------------------------------------------- JobManager

struct JobManager::Pending {
  JobRequest request;
  std::shared_ptr<JobHandle::Shared> shared;
  std::size_t lease_threads = 0;  // resolved at admission
  std::size_t lease_memory = 0;
  ResourceLease lease;  // granted at dispatch
  std::chrono::steady_clock::time_point submitted_at;
  std::size_t driver_index = 0;  // into drivers_, set at dispatch
};

JobManager::JobManager() : JobManager(Options{}) {}

JobManager::JobManager(Options options)
    : options_(options),
      pool_(std::max<std::size_t>(1, options.num_threads)),
      buffers_(options.chunk_buffer_cap != 0
                   ? options.chunk_buffer_cap
                   : std::max<std::size_t>(1, options.num_threads) *
                         ingest::ChunkBufferPool::kBuffersPerPipeline) {
  options_.num_threads = pool_.size();
}

struct JobManager::GraphPending {
  GraphRequest request;
  std::shared_ptr<GraphHandle::Shared> shared;
  std::size_t driver_index = 0;  // into drivers_, set at admission
};

JobManager::~JobManager() { drain(); }

StatusOr<JobHandle> JobManager::submit(JobRequest request) {
  return submit_impl(std::move(request), /*from_graph=*/false);
}

StatusOr<JobHandle> JobManager::submit_impl(JobRequest request,
                                            bool from_graph) {
  const std::size_t threads =
      request.threads != 0
          ? request.threads
          : std::max(request.config.num_map_threads,
                     request.config.num_reduce_threads);
  const std::size_t memory = request.memory_bytes != 0
                                 ? request.memory_bytes
                                 : kDefaultJobMemoryBytes;

  auto reject = [](Status st) {
    SUPMR_COUNTER_ADD("jobmgr.jobs_rejected", 1);
    return st;
  };
  if (request.app == nullptr || request.source == nullptr) {
    return reject(
        Status::InvalidArgument("submit: app and source are required"));
  }
  if (threads == 0) {
    return reject(Status::InvalidArgument(
        "submit: zero-thread lease (set request.threads or config threads)"));
  }
  if (threads > options_.num_threads) {
    return reject(Status::InvalidArgument(
        "submit: thread lease " + std::to_string(threads) +
        " exceeds pool size " + std::to_string(options_.num_threads)));
  }
  if (memory > options_.memory_budget_bytes) {
    return reject(Status::ResourceExhausted(
        "submit: memory lease " + std::to_string(memory) +
        " exceeds budget " + std::to_string(options_.memory_budget_bytes)));
  }

  auto pending = std::make_shared<Pending>();
  pending->request = std::move(request);
  pending->lease_threads = threads;
  pending->lease_memory = memory;
  pending->shared = std::make_shared<JobHandle::Shared>();
  pending->submitted_at = std::chrono::steady_clock::now();

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ && !from_graph) {
      return reject(
          Status::FailedPrecondition("submit: JobManager is draining"));
    }
    if (queued_.size() >= options_.max_queued) {
      return reject(Status::ResourceExhausted(
          "submit: admission queue full (" +
          std::to_string(options_.max_queued) + " jobs)"));
    }
    pending->shared->id = next_id_++;
    pending->shared->name = pending->request.name.empty()
                                ? "job-" + std::to_string(pending->shared->id)
                                : pending->request.name;
    queued_.push_back(pending);
    SUPMR_COUNTER_ADD("jobmgr.jobs_submitted", 1);
    reap_drivers_locked();
    maybe_dispatch_locked();
  }

  JobHandle handle;
  handle.shared_ = pending->shared;
  return handle;
}

StatusOr<GraphHandle> JobManager::submit_graph(GraphRequest request) {
  if (request.graph == nullptr) {
    SUPMR_COUNTER_ADD("jobmgr.graphs_rejected", 1);
    return Status::InvalidArgument("submit_graph: graph is required");
  }
  {
    // Validate up front so a malformed graph is an admission error, not a
    // failure surfaced later through the handle.
    StatusOr<std::vector<std::size_t>> topo = request.graph->topo_order();
    if (!topo.ok()) {
      SUPMR_COUNTER_ADD("jobmgr.graphs_rejected", 1);
      return topo.status();
    }
  }
  if (request.threads > options_.num_threads) {
    SUPMR_COUNTER_ADD("jobmgr.graphs_rejected", 1);
    return Status::InvalidArgument(
        "submit_graph: stage thread lease " + std::to_string(request.threads) +
        " exceeds pool size " + std::to_string(options_.num_threads));
  }

  auto g = std::make_shared<GraphPending>();
  g->request = std::move(request);
  g->shared = std::make_shared<GraphHandle::Shared>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      SUPMR_COUNTER_ADD("jobmgr.graphs_rejected", 1);
      return Status::FailedPrecondition("submit_graph: JobManager is draining");
    }
    g->shared->id = next_id_++;
    g->shared->name = g->request.name.empty()
                          ? "graph-" + std::to_string(g->shared->id)
                          : g->request.name;
    ++graphs_running_;
    reap_drivers_locked();
    g->driver_index = drivers_.size();
    drivers_.emplace_back(&JobManager::run_graph_driver, this, g);
    SUPMR_COUNTER_ADD("jobmgr.graphs_submitted", 1);
  }

  GraphHandle handle;
  handle.shared_ = g->shared;
  return handle;
}

void JobManager::run_graph_driver(std::shared_ptr<GraphPending> g) {
  SUPMR_TRACE_THREAD_NAME("jobmgr.graph-driver");
  // Each stage goes through the ordinary admission path (lease, priority,
  // queue) as "<graph>/<stage>"; from_graph lets a stage of this admitted
  // graph in even after drain() stopped new admissions.
  graph::StageRunner runner =
      [&](std::size_t stage_idx, core::Application& app,
          const ingest::IngestSource& source,
          const core::JobConfig& cfg) -> StatusOr<core::JobResult> {
    const std::string& stage_name =
        g->request.graph->stage(stage_idx).options.name;
    JobRequest req;
    req.app = &app;
    req.source = &source;
    req.config = cfg;
    req.priority = g->request.priority;
    req.threads = g->request.threads;
    req.memory_bytes = g->request.memory_bytes;
    req.name = g->shared->name + "/" +
               (stage_name.empty() ? "stage-" + std::to_string(stage_idx)
                                   : stage_name);
    SUPMR_ASSIGN_OR_RETURN(JobHandle handle,
                           submit_impl(std::move(req), /*from_graph=*/true));
    return handle.wait();
  };

  StatusOr<graph::GraphResult> result =
      graph::run_graph(*g->request.graph, g->request.options, runner);
  const bool ok = result.ok();
  if (!ok) {
    SUPMR_LOG_WARN("jobmgr: graph %llu (%s) failed: %s",
                   static_cast<unsigned long long>(g->shared->id),
                   g->shared->name.c_str(),
                   result.status().to_string().c_str());
  }
  {
    std::lock_guard<std::mutex> lock(g->shared->mu);
    g->shared->result.emplace(std::move(result));
  }
  g->shared->cv.notify_all();
  if (ok) {
    SUPMR_COUNTER_ADD("jobmgr.graphs_completed", 1);
  } else {
    SUPMR_COUNTER_ADD("jobmgr.graphs_failed", 1);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    --graphs_running_;
    done_drivers_.push_back(g->driver_index);
    update_gauges_locked();
  }
  state_cv_.notify_all();
}

void JobManager::maybe_dispatch_locked() {
  while (!queued_.empty()) {
    // Highest priority first; FIFO within a priority (stable earliest pick).
    std::size_t best = 0;
    for (std::size_t i = 1; i < queued_.size(); ++i) {
      if (queued_[i]->request.priority > queued_[best]->request.priority)
        best = i;
    }
    const std::size_t threads = queued_[best]->lease_threads;
    const std::size_t memory = queued_[best]->lease_memory;
    // No backfill past a job that does not fit: letting smaller jobs slip
    // by would starve wide jobs forever under steady load.
    if (threads_leased_ + threads > options_.num_threads ||
        memory_leased_ + memory > options_.memory_budget_bytes) {
      break;
    }
    std::shared_ptr<Pending> job = std::move(queued_[best]);
    queued_.erase(queued_.begin() +
                  static_cast<std::ptrdiff_t>(best));
    threads_leased_ += threads;
    memory_leased_ += memory;
    job->lease = ResourceLease(this, threads, memory);
    ++running_;
    job->driver_index = drivers_.size();
    drivers_.emplace_back(&JobManager::run_job, this, job);
    SUPMR_COUNTER_ADD("jobmgr.jobs_dispatched", 1);
  }
  update_gauges_locked();
}

void JobManager::run_job(std::shared_ptr<Pending> job) {
  SUPMR_TRACE_THREAD_NAME("jobmgr.driver");
  const double queue_wait_s = seconds_since(job->submitted_at);
  {
    std::lock_guard<std::mutex> lock(job->shared->mu);
    job->shared->state = JobState::kRunning;
    job->shared->queue_wait_s = queue_wait_s;
  }
  job->shared->cv.notify_all();
  SUPMR_HIST_OBSERVE("jobmgr.queue_wait_us", queue_wait_s * 1e6);

  // The lease is the job's thread allowance: it bounds the map wave width
  // (and the app's stripe count) regardless of what the caller's config
  // asked for.
  core::JobConfig cfg = job->request.config;
  cfg.num_map_threads = job->lease.threads();
  cfg.num_reduce_threads = job->lease.threads();

  const auto run_start = std::chrono::steady_clock::now();
  StatusOr<core::JobResult> result = [&]() -> StatusOr<core::JobResult> {
    try {
      core::MapReduceJob mr(*job->request.app, *job->request.source, cfg);
      mr.attach_runtime(pool_, &buffers_);
      return mr.run(cfg.mode);
    } catch (const std::exception& e) {
      // Tasks own their errors (CP), but container lifecycle misuse throws;
      // surface it as this job's failure, not the process's.
      return Status::Internal(std::string("job raised: ") + e.what());
    }
  }();
  SUPMR_HIST_OBSERVE("jobmgr.job_run_us", seconds_since(run_start) * 1e6);

  // Hash tables are job-private map-side state, so their footprint is
  // accounted against the job's memory lease after the fact (the table grows
  // with distinct keys, which nobody knows at admission). Exceeding the lease
  // is not an error — the bytes were real and the job already ran — but it is
  // the signal that the caller's request.memory_bytes was too small.
  if (result.ok() && result->combine.table_bytes != 0) {
    SUPMR_COUNTER_ADD("jobmgr.combining_table_bytes",
                      result->combine.table_bytes);
    if (result->combine.table_bytes > job->lease.memory_bytes()) {
      SUPMR_COUNTER_ADD("jobmgr.combining_lease_exceeded", 1);
      SUPMR_LOG_WARN(
          "jobmgr: job %llu (%s) hash table (%llu bytes) exceeded its "
          "memory lease (%llu bytes)",
          static_cast<unsigned long long>(job->shared->id),
          job->shared->name.c_str(),
          static_cast<unsigned long long>(result->combine.table_bytes),
          static_cast<unsigned long long>(job->lease.memory_bytes()));
    }
  }

  const bool ok = result.ok();
  if (!ok) {
    SUPMR_LOG_WARN("jobmgr: job %llu (%s) failed: %s",
                   static_cast<unsigned long long>(job->shared->id),
                   job->shared->name.c_str(),
                   result.status().to_string().c_str());
  }
  {
    std::lock_guard<std::mutex> lock(job->shared->mu);
    job->shared->state = ok ? JobState::kSucceeded : JobState::kFailed;
    job->shared->result.emplace(std::move(result));
  }
  job->shared->cv.notify_all();
  if (ok) {
    SUPMR_COUNTER_ADD("jobmgr.jobs_completed", 1);
  } else {
    SUPMR_COUNTER_ADD("jobmgr.jobs_failed", 1);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
    done_drivers_.push_back(job->driver_index);
    // Return the lease inline (disarmed, not release() — that would retake
    // mu_) so the dispatch below already sees the freed resources.
    threads_leased_ -= job->lease.threads_;
    memory_leased_ -= job->lease.memory_bytes_;
    job->lease.mgr_ = nullptr;
    maybe_dispatch_locked();
  }
  state_cv_.notify_all();
}

void JobManager::return_resources(std::size_t threads,
                                  std::size_t memory_bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads_leased_ -= threads;
    memory_leased_ -= memory_bytes;
    maybe_dispatch_locked();
  }
  state_cv_.notify_all();
}

void JobManager::reap_drivers_locked() {
  for (std::size_t index : done_drivers_) {
    if (drivers_[index].joinable()) drivers_[index].join();
  }
  done_drivers_.clear();
}

void JobManager::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  update_gauges_locked();
  // Graphs count too: an active graph driver keeps submitting stages (which
  // refill the queue), so the queue is only truly dry once no graph is left.
  state_cv_.wait(lock, [&] {
    return queued_.empty() && running_ == 0 && graphs_running_ == 0;
  });
  std::vector<std::thread> to_join;
  to_join.swap(drivers_);
  done_drivers_.clear();
  lock.unlock();
  for (auto& t : to_join) {
    if (t.joinable()) t.join();
  }
}

std::size_t JobManager::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_.size();
}
std::size_t JobManager::running_graphs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graphs_running_;
}
std::size_t JobManager::running_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}
std::size_t JobManager::threads_leased() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threads_leased_;
}
std::size_t JobManager::memory_leased_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memory_leased_;
}
bool JobManager::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

void JobManager::update_gauges_locked() {
  SUPMR_GAUGE_SET("jobmgr.queue_depth", queued_.size());
  SUPMR_GAUGE_SET("jobmgr.running", running_);
  SUPMR_GAUGE_SET("jobmgr.graphs_running", graphs_running_);
  SUPMR_GAUGE_SET("jobmgr.threads_leased", threads_leased_);
  SUPMR_GAUGE_SET("jobmgr.memory_leased_bytes", memory_leased_);
}

}  // namespace supmr::runtime
