// Managed-job conformance (docs/testing.md, docs/runtime.md): a job
// submitted through the JobManager — shared thread pool, shared chunk
// buffers, lease-rewritten thread counts — must stay byte-identical to the
// sequential reference runtime, both alone and while at least three other
// jobs race it on the same manager. A graph spec runs each stage as one
// such job. A diverging cell writes the standard replayable repro spec.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/job_manager.hpp"
#include "tests/harness/harness_util.hpp"

namespace supmr::harness {
namespace {

// Thread-safe expect_cell variant: gtest assertions are not safe off the
// main thread, so workers append failure text and the test asserts after
// joining. On divergence the repro spec is written exactly like
// expect_cell's.
void check_managed_cell(const core::ReplaySpec& spec,
                        runtime::JobManager& manager,
                        const std::string& cell_name, int priority,
                        std::mutex& mu, std::vector<std::string>& failures) {
  ref::ManagedCellOptions opts;
  opts.priority = priority;
  opts.name = cell_name;
  auto outcome = ref::run_cell_managed(spec, manager, opts);
  std::string failure;
  if (!outcome.ok()) {
    failure = cell_name + ": " + outcome.status().to_string();
  } else if (!outcome->match) {
    auto path = ref::write_repro(spec, repro_dir(), sanitize(cell_name));
    failure = cell_name + " diverged from the reference runtime:\n" +
              outcome->diff + "\nreproduce with: supmr replay " +
              (path.ok() ? *path
                         : "<repro write failed: " +
                               path.status().to_string() + ">");
  }
  if (!failure.empty()) {
    std::lock_guard<std::mutex> lock(mu);
    failures.push_back(std::move(failure));
  }
}

runtime::JobManager::Options manager_options() {
  runtime::JobManager::Options opts;
  opts.num_threads = 4;
  opts.memory_budget_bytes = 512ull << 20;
  return opts;
}

TEST(ManagedConformance, ManagedJobAloneMatchesReference) {
  runtime::JobManager manager(manager_options());
  std::mutex mu;
  std::vector<std::string> failures;
  std::size_t salt = 0;
  // pmi is a graph spec: run_cell_managed submits each of its three stages
  // through JobManager::submit, the path `supmr serve` runs graphs on.
  for (auto make :
       {spec_wordcount, spec_grep, spec_histogram, spec_sort, spec_pmi}) {
    core::ReplaySpec spec = make(salt++);
    check_managed_cell(spec, manager,
                       "managed-alone-" + spec.app, /*priority=*/0, mu,
                       failures);
  }
  manager.drain();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_EQ(manager.threads_leased(), 0u);
  EXPECT_EQ(manager.memory_leased_bytes(), 0u);
}

TEST(ManagedConformance, ManagedJobRacingBackgroundJobsMatchesReference) {
  runtime::JobManager manager(manager_options());
  std::mutex mu;
  std::vector<std::string> failures;

  // Three background tenants hammer the manager while the foreground cell
  // runs: different apps, different corpora, mixed priorities — maximum
  // opportunity for cross-job contamination through the shared pool and
  // chunk buffers.
  std::vector<std::thread> background;
  const std::vector<core::ReplaySpec> bg_specs = {
      spec_grep(101), spec_histogram(102), spec_wordcount(103)};
  for (std::size_t i = 0; i < bg_specs.size(); ++i) {
    background.emplace_back([&, i] {
      for (int round = 0; round < 2; ++round) {
        core::ReplaySpec spec = bg_specs[i];
        spec.corpus.seed += static_cast<std::uint64_t>(round) * 1000;
        check_managed_cell(spec, manager,
                           "managed-bg-" + spec.app + "-r" +
                               std::to_string(round),
                           static_cast<int>(i), mu, failures);
      }
    });
  }

  core::ReplaySpec foreground = spec_sort(200);
  foreground.merge_mode = core::MergeMode::kPWay;
  check_managed_cell(foreground, manager, "managed-fg-sort", /*priority=*/2,
                     mu, failures);

  for (std::thread& t : background) t.join();
  manager.drain();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_EQ(manager.threads_leased(), 0u);
  EXPECT_EQ(manager.running_jobs(), 0u);
}

}  // namespace
}  // namespace supmr::harness
