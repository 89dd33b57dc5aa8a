// JobManager unit tests: admission edges (zero-thread lease, over-budget,
// oversized lease, full queue, submit-during-drain), lease accounting across
// success/failure/exception, priority dispatch with the no-backfill rule,
// and the serve-spec parser. Blocking probe apps pin the pool so queue
// ordering is observable deterministically.
#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/word_count.hpp"
#include "core/application.hpp"
#include "core/job.hpp"
#include "fault/fault_plan.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "runtime/job_manager.hpp"
#include "runtime/serve_spec.hpp"
#include "storage/fault_device.hpp"
#include "storage/mem_device.hpp"
#include "wload/text_corpus.hpp"

namespace supmr::runtime {
namespace {

using ingest::LineFormat;
using ingest::SingleDeviceSource;
using storage::MemDevice;

std::shared_ptr<const storage::Device> mem_corpus(std::uint64_t bytes,
                                                  std::uint64_t seed) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = bytes;
  cfg.seed = seed;
  return std::make_shared<MemDevice>(wload::generate_text(cfg), "mem");
}

// One app + source pair per submission (Applications hold per-job state).
struct Tenant {
  explicit Tenant(std::uint64_t seed = 1, std::uint64_t bytes = 64 * 1024)
      : device(mem_corpus(bytes, seed)),
        source(device, std::make_shared<LineFormat>(), 8 * 1024) {}

  JobRequest request(std::size_t threads = 1) {
    JobRequest r;
    r.app = &app;
    r.source = &source;
    r.config.mode = core::ExecMode::kIngestMR;
    r.config.num_map_threads = threads;
    r.config.num_reduce_threads = threads;
    r.threads = threads;
    return r;
  }

  std::shared_ptr<const storage::Device> device;
  apps::WordCountApp app;
  SingleDeviceSource source;
};

// Minimal app that records dispatch order and optionally parks its map task
// until the test releases it — pinning the pool so queued submissions stack
// up behind a running job.
class ProbeApp final : public core::Application {
 public:
  struct Sequencer {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<int> order;
    bool released = false;

    void record(int tag) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(tag);
    }
    void release() {
      {
        std::lock_guard<std::mutex> lock(mu);
        released = true;
      }
      cv.notify_all();
    }
    void await_release() {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return released; });
    }
  };

  ProbeApp(Sequencer& seq, int tag, bool block = false)
      : seq_(seq), tag_(tag), block_(block) {}

  void init(std::size_t) override {}
  Status prepare_round(const ingest::IngestChunk&) override {
    if (!recorded_) {
      seq_.record(tag_);
      recorded_ = true;
    }
    return Status::Ok();
  }
  std::size_t round_tasks() const override { return 1; }
  void map_task(std::size_t, std::size_t) override {
    if (block_) seq_.await_release();
  }
  Status reduce(ThreadPool&, std::size_t) override { return Status::Ok(); }
  Status merge(ThreadPool&, const core::MergePlan&,
               merge::MergeStats*) override {
    return Status::Ok();
  }
  std::uint64_t result_count() const override { return 0; }

 private:
  Sequencer& seq_;
  int tag_;
  bool block_;
  bool recorded_ = false;
};

class ThrowingApp final : public core::Application {
 public:
  void init(std::size_t) override {}
  Status prepare_round(const ingest::IngestChunk&) override {
    return Status::Ok();
  }
  std::size_t round_tasks() const override { return 0; }
  void map_task(std::size_t, std::size_t) override {}
  Status reduce(ThreadPool&, std::size_t) override {
    throw std::logic_error("container lifecycle misuse");
  }
  Status merge(ThreadPool&, const core::MergePlan&,
               merge::MergeStats*) override {
    return Status::Ok();
  }
  std::uint64_t result_count() const override { return 0; }
};

JobManager::Options small_manager(std::size_t threads) {
  JobManager::Options opts;
  opts.num_threads = threads;
  opts.memory_budget_bytes = 256ull << 20;
  return opts;
}

TEST(JobManager, SingleJobSucceedsAndReturnsLease) {
  JobManager manager(small_manager(2));
  Tenant tenant;
  auto handle = manager.submit(tenant.request(2));
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  auto result = handle->wait();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_GT(result->result_count, 0u);
  EXPECT_EQ(handle->state(), JobState::kSucceeded);

  manager.drain();
  EXPECT_EQ(manager.threads_leased(), 0u);
  EXPECT_EQ(manager.memory_leased_bytes(), 0u);
  EXPECT_EQ(manager.running_jobs(), 0u);
  EXPECT_EQ(manager.queue_depth(), 0u);
}

TEST(JobManager, CombiningJobAccountsTableAgainstLease) {
  // A managed job on the combining container must surface its fold
  // accounting through JobResult so the manager can charge the table
  // footprint against the memory lease (docs/containers.md).
  JobManager manager(small_manager(2));
  Tenant tenant;
  ASSERT_TRUE(tenant.app.use_container(core::ContainerMode::kCombining).ok());
  JobRequest request = tenant.request(2);
  request.memory_bytes = 8ull << 20;
  auto handle = manager.submit(std::move(request));
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  auto result = handle->wait();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_GT(result->result_count, 0u);
  // The fold really ran: emits were folded and the table footprint the
  // lease is charged for is real and nonzero.
  EXPECT_GT(result->combine.emits, 0u);
  EXPECT_GT(result->combine.keys_folded, 0u);
  EXPECT_GT(result->combine.table_bytes, 0u);
  EXPECT_LT(result->combine.bytes_into_merge, result->combine.bytes_emitted);
  manager.drain();
  EXPECT_EQ(manager.memory_leased_bytes(), 0u);
}

TEST(JobManager, DefaultContainerJobReportsNoCombineStats) {
  JobManager manager(small_manager(2));
  Tenant tenant;  // default container: no fold accounting to charge
  auto handle = manager.submit(tenant.request(2));
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  auto result = handle->wait();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->combine.emits, 0u);
  EXPECT_EQ(result->combine.table_bytes, 0u);
  manager.drain();
}

TEST(JobManager, FailedJobStillReturnsLease) {
  JobManager manager(small_manager(2));
  Tenant tenant;
  // Poison every read: the job must fail, the lease must still come back.
  auto plan = fault::FaultPlan::parse("permanent=0-1000000");
  ASSERT_TRUE(plan.ok());
  auto faulty = std::make_shared<storage::FaultDevice>(tenant.device, *plan);
  SingleDeviceSource source(faulty, std::make_shared<LineFormat>(),
                            8 * 1024);
  JobRequest request = tenant.request(1);
  request.source = &source;
  auto handle = manager.submit(std::move(request));
  ASSERT_TRUE(handle.ok());
  auto result = handle->wait();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(handle->state(), JobState::kFailed);
  manager.drain();
  EXPECT_EQ(manager.threads_leased(), 0u);
  EXPECT_EQ(manager.memory_leased_bytes(), 0u);
}

TEST(JobManager, ThrowingJobFailsWithoutKillingTheManager) {
  JobManager manager(small_manager(2));
  ThrowingApp app;
  Tenant tenant;
  JobRequest request = tenant.request(1);
  request.app = &app;
  auto handle = manager.submit(std::move(request));
  ASSERT_TRUE(handle.ok());
  auto result = handle->wait();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().to_string().find("job raised"),
            std::string::npos);

  // The manager survives: a healthy job on the same manager still runs.
  Tenant healthy(2);
  auto next = manager.submit(healthy.request(1));
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(next->wait().ok());
}

TEST(JobManager, ZeroThreadLeaseIsRejected) {
  JobManager manager(small_manager(2));
  Tenant tenant;
  JobRequest request = tenant.request(1);
  request.threads = 0;
  request.config.num_map_threads = 0;
  request.config.num_reduce_threads = 0;
  auto handle = manager.submit(std::move(request));
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
}

TEST(JobManager, OversizedLeasesAreRejectedUpFront) {
  JobManager manager(small_manager(2));
  Tenant tenant;

  JobRequest wide = tenant.request(3);  // > pool size: can never dispatch
  auto h1 = manager.submit(std::move(wide));
  ASSERT_FALSE(h1.ok());
  EXPECT_EQ(h1.status().code(), StatusCode::kInvalidArgument);

  JobRequest hungry = tenant.request(1);
  hungry.memory_bytes = manager.options().memory_budget_bytes + 1;
  auto h2 = manager.submit(std::move(hungry));
  ASSERT_FALSE(h2.ok());
  EXPECT_EQ(h2.status().code(), StatusCode::kResourceExhausted);

  JobRequest null_app = tenant.request(1);
  null_app.app = nullptr;
  auto h3 = manager.submit(std::move(null_app));
  ASSERT_FALSE(h3.ok());
  EXPECT_EQ(h3.status().code(), StatusCode::kInvalidArgument);
}

TEST(JobManager, SubmitDuringDrainFails) {
  JobManager manager(small_manager(2));
  manager.drain();
  EXPECT_TRUE(manager.draining());
  Tenant tenant;
  auto handle = manager.submit(tenant.request(1));
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kFailedPrecondition);
  manager.drain();  // idempotent
}

TEST(JobManager, AdmissionQueueIsBounded) {
  JobManager::Options opts = small_manager(1);
  opts.max_queued = 2;
  JobManager manager(opts);

  ProbeApp::Sequencer seq;
  ProbeApp blocker(seq, 0, /*block=*/true);
  Tenant pinned;
  JobRequest pin = pinned.request(1);
  pin.app = &blocker;
  auto running = manager.submit(std::move(pin));
  ASSERT_TRUE(running.ok());

  std::vector<std::unique_ptr<Tenant>> tenants;
  std::vector<JobHandle> queued;
  for (int i = 0; i < 2; ++i) {
    tenants.push_back(std::make_unique<Tenant>(10 + i, 16 * 1024));
    auto h = manager.submit(tenants.back()->request(1));
    ASSERT_TRUE(h.ok()) << h.status().to_string();
    queued.push_back(*h);
  }
  tenants.push_back(std::make_unique<Tenant>(99, 16 * 1024));
  auto overflow = manager.submit(tenants.back()->request(1));
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(manager.queue_depth(), 2u);

  seq.release();
  for (const JobHandle& h : queued) EXPECT_TRUE(h.wait().ok());
  manager.drain();
}

TEST(JobManager, DispatchesByPriorityFifoWithinTies) {
  JobManager manager(small_manager(1));
  ProbeApp::Sequencer seq;

  Tenant pinned;
  ProbeApp blocker(seq, 0, /*block=*/true);
  JobRequest pin = pinned.request(1);
  pin.app = &blocker;
  auto running = manager.submit(std::move(pin));
  ASSERT_TRUE(running.ok());

  // Queue while the pool is pinned: priorities 1, 5, 5, 3 must dispatch as
  // 5, 5 (submission order), 3, 1 once the blocker releases.
  struct Queued {
    int priority;
    int tag;
  };
  const std::vector<Queued> plan = {{1, 1}, {5, 2}, {5, 3}, {3, 4}};
  std::vector<std::unique_ptr<Tenant>> tenants;
  std::vector<std::unique_ptr<ProbeApp>> apps;
  std::vector<JobHandle> handles;
  for (const Queued& q : plan) {
    tenants.push_back(std::make_unique<Tenant>(20 + q.tag, 16 * 1024));
    apps.push_back(std::make_unique<ProbeApp>(seq, q.tag));
    JobRequest request = tenants.back()->request(1);
    request.app = apps.back().get();
    request.priority = q.priority;
    auto h = manager.submit(std::move(request));
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  EXPECT_EQ(manager.queue_depth(), 4u);

  seq.release();
  for (const JobHandle& h : handles) ASSERT_TRUE(h.wait().ok());
  manager.drain();
  EXPECT_EQ(seq.order, (std::vector<int>{0, 2, 3, 4, 1}));
}

TEST(JobManager, NoBackfillPastAJobThatDoesNotFit) {
  JobManager manager(small_manager(2));
  ProbeApp::Sequencer seq;

  Tenant pinned;
  ProbeApp blocker(seq, 0, /*block=*/true);
  JobRequest pin = pinned.request(1);
  pin.app = &blocker;
  auto running = manager.submit(std::move(pin));
  ASSERT_TRUE(running.ok());

  // Head of queue wants both threads and cannot fit while the blocker holds
  // one; the narrow job behind it must NOT slip past.
  Tenant wide_tenant(30, 16 * 1024), narrow_tenant(31, 16 * 1024);
  ProbeApp wide_app(seq, 1), narrow_app(seq, 2);
  JobRequest wide = wide_tenant.request(2);
  wide.app = &wide_app;
  JobRequest narrow = narrow_tenant.request(1);
  narrow.app = &narrow_app;
  auto wide_h = manager.submit(std::move(wide));
  auto narrow_h = manager.submit(std::move(narrow));
  ASSERT_TRUE(wide_h.ok());
  ASSERT_TRUE(narrow_h.ok());
  EXPECT_EQ(manager.queue_depth(), 2u);

  seq.release();
  ASSERT_TRUE(wide_h->wait().ok());
  ASSERT_TRUE(narrow_h->wait().ok());
  manager.drain();
  EXPECT_EQ(seq.order, (std::vector<int>{0, 1, 2}));
}

TEST(JobManager, LeaseAccountingWhileRunning) {
  JobManager manager(small_manager(4));
  ProbeApp::Sequencer seq;
  Tenant tenant;
  ProbeApp blocker(seq, 0, /*block=*/true);
  JobRequest request = tenant.request(3);
  request.app = &blocker;
  request.memory_bytes = 32ull << 20;
  auto handle = manager.submit(std::move(request));
  ASSERT_TRUE(handle.ok());

  // Wait until the job is actually running, then check the gauges.
  while (handle->state() == JobState::kQueued) std::this_thread::yield();
  EXPECT_EQ(manager.running_jobs(), 1u);
  EXPECT_EQ(manager.threads_leased(), 3u);
  EXPECT_EQ(manager.memory_leased_bytes(), 32ull << 20);

  seq.release();
  ASSERT_TRUE(handle->wait().ok());
  manager.drain();
  EXPECT_EQ(manager.threads_leased(), 0u);
  EXPECT_EQ(manager.memory_leased_bytes(), 0u);
}

TEST(ResourceLease, DefaultIsInactiveAndMoveSafe) {
  ResourceLease a;
  EXPECT_FALSE(a.active());
  EXPECT_EQ(a.threads(), 0u);
  ResourceLease b = std::move(a);
  EXPECT_FALSE(b.active());
  b.release();  // idempotent no-op on an inactive lease
  EXPECT_FALSE(b.active());
}

TEST(JobHandle, EmptyHandleFailsWait) {
  JobHandle handle;
  EXPECT_FALSE(handle.valid());
  auto result = handle.wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------- serve spec

constexpr char kSpecJson[] = R"({
  "app": "wordcount",
  "corpus": {"kind": "text", "bytes": 131072, "seed": 11, "num_files": 6},
  "params": {
    "key_bytes": 10, "record_bytes": 100, "app_partitions": 0,
    "hist_lo": 0, "hist_hi": 256, "hist_bins": 32,
    "grep_patterns": "th,he,zz", "memory_budget": 0
  },
  "cell": {
    "mode": "supmr", "merge": "pway", "threads": 3,
    "merge_partitions": 0, "chunk_bytes": 16384, "files_per_chunk": 3,
    "degrade": false, "fault_plan": "", "retry_attempts": 1
  }
})";

std::string serve_json(const std::string& jobs) {
  return "{\"pool_threads\": 4, \"memory_budget_bytes\": 1048576,\n"
         "\"max_queued\": 8, \"jobs\": [" +
         jobs + "]}";
}

TEST(ServeSpec, ParsesJobsWithLeaseOverrides) {
  const std::string text = serve_json(
      std::string("{\"name\": \"wc\", \"priority\": 5, \"threads\": 2,"
                  "\"memory_bytes\": 4096, \"repeat\": 3, \"spec\": ") +
      kSpecJson + "}");
  auto spec = parse_serve_spec(text);
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  EXPECT_EQ(spec->pool_threads, 4u);
  EXPECT_EQ(spec->memory_budget_bytes, 1048576u);
  EXPECT_EQ(spec->max_queued, 8u);
  ASSERT_EQ(spec->jobs.size(), 1u);
  const ServeJobSpec& job = spec->jobs[0];
  EXPECT_EQ(job.name, "wc");
  EXPECT_EQ(job.priority, 5);
  EXPECT_EQ(job.threads, 2u);
  EXPECT_EQ(job.memory_bytes, 4096u);
  EXPECT_EQ(job.repeat, 3u);
  EXPECT_EQ(job.spec.app, "wordcount");
  EXPECT_EQ(job.spec.threads, 3u);
}

TEST(ServeSpec, RejectsMalformedSpecs) {
  // Unknown top-level key.
  EXPECT_FALSE(parse_serve_spec("{\"bogus\": 1}").ok());
  // Unknown job key.
  EXPECT_FALSE(
      parse_serve_spec(serve_json(std::string("{\"nope\": 1, \"spec\": ") +
                                  kSpecJson + "}"))
          .ok());
  // Job without a spec.
  EXPECT_FALSE(parse_serve_spec(serve_json("{\"name\": \"wc\"}")).ok());
  // Zero repeat.
  EXPECT_FALSE(
      parse_serve_spec(serve_json(std::string("{\"repeat\": 0, \"spec\": ") +
                                  kSpecJson + "}"))
          .ok());
  // No jobs at all.
  EXPECT_FALSE(parse_serve_spec("{\"pool_threads\": 2, \"jobs\": []}").ok());
  // Trailing content.
  EXPECT_FALSE(
      parse_serve_spec(serve_json(std::string("{\"spec\": ") + kSpecJson +
                                  "}") +
                       " garbage")
          .ok());
  // The nested spec itself must satisfy the strict replay parser.
  EXPECT_FALSE(
      parse_serve_spec(serve_json("{\"spec\": {\"app\": \"wordcount\"}}"))
          .ok());
  // Integers outside their field's range are errors: no exception out of
  // the parser, no int wrap-around of priority. A repeated key is an error.
  for (const char* keys :
       {"\"threads\": 99999999999999999999,", "\"priority\": 3000000000,",
        "\"repeat\": 2, \"repeat\": 3,"}) {
    const auto spec = parse_serve_spec(
        serve_json(std::string("{") + keys + " \"spec\": " + kSpecJson + "}"));
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << keys;
  }
  // serve starts every pool thread and one client thread per job instance
  // at once: more than core::kMaxThreads of either is an error.
  const std::string repeated =
      std::string("{\"repeat\": 600, \"spec\": ") + kSpecJson + "}";
  for (const std::string& text :
       {"{\"pool_threads\": 1025, \"jobs\": [{\"spec\": " +
            std::string(kSpecJson) + "}]}",
        serve_json(repeated + ", " + repeated)}) {
    const auto spec = parse_serve_spec(text);
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

}  // namespace
}  // namespace supmr::runtime
