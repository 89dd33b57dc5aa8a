// Map waves that claim slices (core/job.cpp): the claim loop's contract,
// and results that do not depend on which worker claimed which slice.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "apps/kmeans.hpp"
#include "core/job.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/mem_device.hpp"
#include "wload/numeric.hpp"

namespace supmr::core {
namespace {

using ingest::LineFormat;
using ingest::SingleDeviceSource;

std::shared_ptr<const storage::Device> mem(std::string s) {
  return std::make_shared<storage::MemDevice>(std::move(s), "m");
}

JobConfig cfg(std::size_t mappers) {
  JobConfig c;
  c.num_map_threads = mappers;
  c.num_reduce_threads = 2;
  return c;
}

// One round of kTasks tasks. Task 0 blocks until every other task has
// finished, for at most 10 s: only workers that claim tasks while another
// is stuck can finish them. A runtime that ran the round as successive
// waves of `mappers` tasks could not start the second wave, and task 0
// would record a timeout instead of hanging.
class ClaimProbeApp final : public Application {
 public:
  static constexpr std::size_t kMappers = 4;
  static constexpr std::size_t kTasks = 37;

  void init(std::size_t) override {}
  Status prepare_round(const ingest::IngestChunk&) override {
    return Status::Ok();
  }
  std::size_t round_tasks() const override { return kTasks; }
  void map_task(std::size_t task, std::size_t thread_id) override {
    if (thread_id >= kMappers) {
      bad_thread_id_ = true;
      return;
    }
    if (in_flight_[thread_id].exchange(true)) overlapped_ = true;
    runs_[task].fetch_add(1);
    if (task == 0) {
      std::unique_lock<std::mutex> lock(mu_);
      if (!done_.wait_for(lock, std::chrono::seconds(10),
                          [this] { return finished_ == kTasks - 1; })) {
        timed_out_ = true;
      }
    }
    in_flight_[thread_id] = false;
    if (task != 0) {
      std::lock_guard<std::mutex> lock(mu_);
      ++finished_;
      done_.notify_all();
    }
  }
  Status reduce(ThreadPool&, std::size_t) override { return Status::Ok(); }
  Status merge(ThreadPool&, const MergePlan&, merge::MergeStats*) override {
    return Status::Ok();
  }
  std::uint64_t result_count() const override { return 0; }

  std::array<std::atomic<int>, kTasks> runs_{};
  std::array<std::atomic<bool>, kMappers> in_flight_{};
  std::atomic<bool> bad_thread_id_{false};
  std::atomic<bool> overlapped_{false};
  std::atomic<bool> timed_out_{false};

 private:
  std::mutex mu_;
  std::condition_variable done_;
  std::size_t finished_ = 0;
};

TEST(MapReduceJob, WorkersClaimSlices) {
  for (const bool unpooled : {false, true}) {
    ClaimProbeApp app;
    SingleDeviceSource src(mem("x\n"), std::make_shared<LineFormat>(), 0);
    JobConfig c = cfg(ClaimProbeApp::kMappers);
    c.unpooled_map_waves = unpooled;
    MapReduceJob job(app, src, c);
    auto result = job.run(ExecMode::kOriginal);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_FALSE(app.timed_out_) << "unpooled=" << unpooled
                                 << ": task 0 waited 10 s for the others";
    EXPECT_FALSE(app.bad_thread_id_) << "thread_id outside the mapper count";
    EXPECT_FALSE(app.overlapped_) << "two tasks ran on one thread_id at once";
    for (std::size_t t = 0; t < ClaimProbeApp::kTasks; ++t) {
      EXPECT_EQ(app.runs_[t].load(), 1) << "task " << t;
    }
  }
}

// Forwards to `inner` and delays task `slow` of every round, so the other
// workers claim the slices after it: each delayed task gives another
// assignment of slices to thread_ids.
class DelayTaskApp final : public Application {
 public:
  DelayTaskApp(Application& inner, std::size_t slow)
      : inner_(inner), slow_(slow) {}

  void init(std::size_t mappers) override { inner_.init(mappers); }
  Status prepare_round(const ingest::IngestChunk& chunk) override {
    return inner_.prepare_round(chunk);
  }
  std::size_t round_tasks() const override { return inner_.round_tasks(); }
  void map_task(std::size_t task, std::size_t thread_id) override {
    if (task == slow_)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    inner_.map_task(task, thread_id);
  }
  Status reduce(ThreadPool& pool, std::size_t partitions) override {
    return inner_.reduce(pool, partitions);
  }
  Status merge(ThreadPool& pool, const MergePlan& plan,
               merge::MergeStats* stats) override {
    return inner_.merge(pool, plan, stats);
  }
  std::uint64_t result_count() const override {
    return inner_.result_count();
  }

 private:
  Application& inner_;
  std::size_t slow_;
};

constexpr std::size_t kSlowTasks[] = {0, 13, 26, 39, 52};

// Runs `app` over `data` in 64 KiB chunks on 4 mappers, delaying task
// `slow` of every round.
void run_delayed(Application& app, const std::string& data, std::size_t slow) {
  DelayTaskApp delayed(app, slow);
  SingleDeviceSource src(mem(data), std::make_shared<LineFormat>(),
                         64 * 1024);
  MapReduceJob job(delayed, src, cfg(4));
  auto result = job.run(ExecMode::kIngestMR);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// K-means folds doubles, and floating-point addition does not
// reassociate: the same input must give the same bits whichever worker
// claims a slice.
TEST(ClaimOrder, FloatAppsGiveIdenticalBits) {
  wload::PointsConfig pc;
  pc.num_points = 20000;
  pc.clusters = 4;
  pc.dim = 3;
  std::vector<std::vector<double>> centers;
  const std::string points = wload::generate_points(pc, &centers);
  std::vector<std::uint64_t> centroids;
  for (const std::size_t slow : kSlowTasks) {
    apps::KMeansApp app({.clusters = pc.clusters, .dim = pc.dim}, centers);
    run_delayed(app, points, slow);
    ASSERT_EQ(app.points_assigned(), pc.num_points);
    std::vector<std::uint64_t> got;
    for (const auto& c : app.new_centroids())
      for (const double x : c) got.push_back(bits(x));
    if (centroids.empty()) {
      centroids = got;
      continue;
    }
    EXPECT_EQ(got, centroids) << "slow task " << slow;
  }
}

}  // namespace
}  // namespace supmr::core
