// JobManager concurrency hammer: K client threads submit seeded conformance
// cells (mixed apps, thread leases, priorities) at a 4-thread manager under
// schedule fuzzing, every cell oracle-checked against the sequential
// reference. Divergence writes the standard replayable repro spec (into
// SUPMR_HARNESS_REPRO_DIR when set). Also pins the drain/submit race: a
// drain concurrent with submissions must reject or run each job, never
// hang or leak a lease.
#include <gtest/gtest.h>

#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/job_manager.hpp"
#include "sched_fuzz.hpp"
#include "tests/harness/harness_util.hpp"

namespace supmr::test {
namespace {

core::ReplaySpec seeded_spec(std::uint64_t& rng_state, std::uint64_t salt) {
  core::ReplaySpec spec;
  switch (splitmix64(rng_state) % 4) {
    case 0: spec = harness::spec_wordcount(salt); break;
    case 1: spec = harness::spec_grep(salt); break;
    case 2: spec = harness::spec_histogram(salt); break;
    default: spec = harness::spec_sort(salt); break;
  }
  // Smaller corpora than the lattice suite: throughput of schedules, not
  // bytes, is what this test buys.
  spec.corpus.bytes = 48 * 1024 + (splitmix64(rng_state) % 4) * 16 * 1024;
  spec.threads = 1 + splitmix64(rng_state) % 3;
  spec.chunk_bytes = 8 * 1024 << (splitmix64(rng_state) % 2);
  if (splitmix64(rng_state) % 3 == 0) {
    spec.merge_mode = core::MergeMode::kPairwise;
  }
  return spec;
}

class JobManagerStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JobManagerStress, ConcurrentManagedCellsMatchTheReference) {
  SchedFuzz fuzz(GetParam());
  runtime::JobManager::Options opts;
  opts.num_threads = 4;
  opts.memory_budget_bytes = 512ull << 20;
  runtime::JobManager manager(opts);

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kCellsPerClient = 3;
  std::mutex mu;
  std::vector<std::string> failures;

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SchedFuzz::Stream stream(fuzz, c);
      std::uint64_t rng_state = fuzz.seed() ^ (0x9e3779b9ULL * (c + 1));
      for (std::size_t i = 0; i < kCellsPerClient; ++i) {
        const std::uint64_t salt = 1000 * (c + 1) + i;
        core::ReplaySpec spec = seeded_spec(rng_state, salt);
        stream.yield_point();
        ref::ManagedCellOptions cell;
        cell.priority = static_cast<int>(splitmix64(rng_state) % 3);
        cell.name = "stress-c" + std::to_string(c) + "-" + std::to_string(i);
        auto outcome = ref::run_cell_managed(spec, manager, cell);
        std::string failure;
        if (!outcome.ok()) {
          failure = cell.name + ": " + outcome.status().to_string();
        } else if (!outcome->match) {
          auto path = ref::write_repro(spec, harness::repro_dir(),
                                       harness::sanitize(cell.name));
          failure = cell.name + " diverged:\n" + outcome->diff +
                    "\nreproduce with: supmr replay " +
                    (path.ok() ? *path : path.status().to_string());
        }
        if (!failure.empty()) {
          std::lock_guard<std::mutex> lock(mu);
          failures.push_back(std::move(failure));
        }
        stream.yield_point();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  manager.drain();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_EQ(manager.threads_leased(), 0u);
  EXPECT_EQ(manager.memory_leased_bytes(), 0u);
  EXPECT_EQ(manager.running_jobs(), 0u);
  EXPECT_EQ(manager.queue_depth(), 0u);
}

TEST_P(JobManagerStress, DrainRacingSubmissionsNeverHangsOrLeaks) {
  SchedFuzz fuzz(GetParam());
  runtime::JobManager::Options opts;
  opts.num_threads = 2;
  runtime::JobManager manager(opts);

  // Submitters race a drain: every submit must either be rejected
  // (FailedPrecondition once draining) or produce a job that runs to a
  // terminal state. Either way the books must balance afterwards.
  constexpr std::size_t kSubmitters = 3;
  std::mutex mu;
  std::vector<std::string> failures;
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      SchedFuzz::Stream stream(fuzz, 100 + s);
      for (std::size_t i = 0; i < 4; ++i) {
        core::ReplaySpec spec = harness::spec_grep(5000 + 10 * s + i);
        spec.corpus.bytes = 16 * 1024;
        spec.threads = 1;
        stream.yield_point();
        auto outcome = ref::run_cell_managed(spec, manager);
        if (!outcome.ok()) {
          // The only acceptable failure is the drain closing admissions.
          if (outcome.status().code() != StatusCode::kFailedPrecondition) {
            std::lock_guard<std::mutex> lock(mu);
            failures.push_back("submit " + std::to_string(s) + "/" +
                               std::to_string(i) + ": " +
                               outcome.status().to_string());
          }
        } else if (!outcome->match) {
          std::lock_guard<std::mutex> lock(mu);
          failures.push_back("cell " + std::to_string(s) + "/" +
                             std::to_string(i) + " diverged:\n" +
                             outcome->diff);
        }
        stream.yield_point();
      }
    });
  }
  {
    SchedFuzz::Stream stream(fuzz, 999);
    stream.yield_point();
    manager.drain();
  }
  for (std::thread& t : submitters) t.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_TRUE(manager.draining());
  EXPECT_EQ(manager.threads_leased(), 0u);
  EXPECT_EQ(manager.memory_leased_bytes(), 0u);
  EXPECT_EQ(manager.running_jobs(), 0u);
  EXPECT_EQ(manager.queue_depth(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JobManagerStress,
                         ::testing::ValuesIn(kStressSeeds));

}  // namespace
}  // namespace supmr::test
