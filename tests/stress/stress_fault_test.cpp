// Fault-injection stress: the pipeline's chunk-recovery paths, over planned
// and controller-sized extents, under seeded probabilistic faults. The hang
// risks hunted here: a permanent fault must surface as a clean Status with
// the producer joined (not a wedged double buffer), backoff sleeps must
// honor pipeline cancellation, and degrade-mode skips must keep the stream
// advancing. Each TEST_P runs per seed in kStressSeeds; sanitizer builds run
// this suite under TSan/ASan.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "fault/fault_plan.hpp"
#include "fault/retry_policy.hpp"
#include "fault/retrying_device.hpp"
#include "ingest/adaptive.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "sched_fuzz.hpp"
#include "storage/fault_device.hpp"
#include "storage/mem_device.hpp"

namespace supmr {
namespace {

using ingest::IngestChunk;
using storage::MemDevice;

std::string make_text(int lines) {
  std::string text;
  for (int i = 0; i < lines; ++i)
    text += "line" + std::to_string(i) + " payload payload\n";
  return text;
}

fault::Recovery fast_recovery(std::uint32_t attempts, bool degrade = false) {
  fault::Recovery r;
  r.policy.max_attempts = attempts;
  r.policy.backoff_base_s = 1e-5;
  r.policy.backoff_max_s = 1e-4;
  r.policy.jitter = 0.5;
  r.degrade = degrade;
  return r;
}

std::shared_ptr<const storage::Device> borrow(const storage::Device* dev) {
  return std::shared_ptr<const storage::Device>(dev,
                                                [](const storage::Device*) {});
}

class FaultStress : public ::testing::TestWithParam<std::uint64_t> {};

// Transient faults at a rate the retry budget beats: the pipeline must
// deliver every byte despite the injections.
TEST_P(FaultStress, TransientFaultsRecoverLosslessly) {
  test::SchedFuzz fuzz(GetParam());
  test::SchedFuzz::Stream sched(fuzz, 0);
  const std::string text = make_text(400);
  MemDevice base(text);
  // Plan over the clean device — planning probes are fail-fast by design,
  // so faults target only the data path.
  ingest::SingleDeviceSource clean(
      borrow(&base), std::make_shared<ingest::LineFormat>(), 256);
  auto extents = clean.plan();
  ASSERT_TRUE(extents.ok());

  fault::FaultPlan plan;
  plan.seed = GetParam();
  plan.transient_p = 0.25;
  storage::FaultDevice fault(&base, plan);
  ingest::SingleDeviceSource src(
      borrow(&fault), std::make_shared<ingest::LineFormat>(), 256);

  // 8 attempts: P(8 consecutive transients) = 0.25^8 ~ 1.5e-5 per chunk.
  ingest::IngestPipeline pipeline(src, fast_recovery(8));
  std::uint64_t bytes = 0;
  auto stats = pipeline.run_planned(*extents, [&](IngestChunk& chunk) {
    sched.yield_point();
    bytes += chunk.data.size();
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(bytes, text.size());
  EXPECT_EQ(stats->chunks_skipped, 0u);
}

// A permanent fault mid-stream: the job fails with a clean, annotated
// IoError; the producer thread is joined (the test returning at all proves
// it — a wedged double buffer trips the ctest TIMEOUT).
TEST_P(FaultStress, PermanentFaultSurfacesCleanStatus) {
  test::SchedFuzz fuzz(GetParam());
  test::SchedFuzz::Stream sched(fuzz, 0);
  const std::string text = make_text(400);
  MemDevice base(text);
  // Plan on the clean device (planning probes would trip a poisoned range),
  // then run the planned extents through a device poisoning a random chunk.
  ingest::SingleDeviceSource planner(
      borrow(&base), std::make_shared<ingest::LineFormat>(), 256);
  auto extents = planner.plan();
  ASSERT_TRUE(extents.ok());
  ASSERT_GT(extents->size(), 4u);
  const auto& victim = (*extents)[sched.rand() % extents->size()];
  fault::FaultPlan fplan;
  fplan.permanent.emplace_back(victim.offset, victim.offset + victim.length);
  storage::FaultDevice fault(&base, fplan);
  ingest::SingleDeviceSource src(
      borrow(&fault), std::make_shared<ingest::LineFormat>(), 256);

  ingest::IngestPipeline pipeline(src, fast_recovery(3));
  auto stats = pipeline.run_planned(*extents, [&](IngestChunk&) {
    sched.yield_point();
    return Status::Ok();
  });
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kIoError);
  EXPECT_NE(stats.status().message().find("[fault:"), std::string::npos);
}

// Degrade mode under probabilistic + permanent faults: the run completes,
// and skipped + delivered always covers the whole plan.
TEST_P(FaultStress, DegradeModeAccountsForEveryChunk) {
  test::SchedFuzz fuzz(GetParam());
  test::SchedFuzz::Stream sched(fuzz, 0);
  const std::string text = make_text(400);
  MemDevice base(text);
  // Plan clean, then poison 1-3 random extents (possibly duplicates —
  // overlap is fine) in the plan of the device the pipeline reads from.
  ingest::SingleDeviceSource planner(
      borrow(&base), std::make_shared<ingest::LineFormat>(), 256);
  auto extents = planner.plan();
  ASSERT_TRUE(extents.ok());
  fault::FaultPlan fplan;
  const int poisoned = 1 + int(sched.rand() % 3);
  for (int i = 0; i < poisoned; ++i) {
    const auto& victim = (*extents)[sched.rand() % extents->size()];
    fplan.permanent.emplace_back(victim.offset,
                                 victim.offset + victim.length);
  }
  storage::FaultDevice fault(&base, fplan);
  ingest::SingleDeviceSource src(
      borrow(&fault), std::make_shared<ingest::LineFormat>(), 256);

  ingest::IngestPipeline pipeline(src, fast_recovery(2, /*degrade=*/true));
  std::uint64_t bytes = 0;
  std::uint64_t delivered = 0;
  auto stats = pipeline.run_planned(*extents, [&](IngestChunk& chunk) {
    sched.yield_point();
    bytes += chunk.data.size();
    ++delivered;
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_GE(stats->chunks_skipped, 1u);
  EXPECT_EQ(delivered + stats->chunks_skipped, extents->size());
  EXPECT_EQ(bytes + stats->bytes_skipped, text.size());
}

// Adaptive ingest: same degrade discipline with controller-driven chunk
// sizing — skips must advance the stream, not stall or re-read forever.
TEST_P(FaultStress, AdaptiveDegradeAdvancesPastPoison) {
  test::SchedFuzz fuzz(GetParam());
  test::SchedFuzz::Stream sched(fuzz, 0);
  // FixedFormat: boundary adjustment is pure arithmetic, so the poisoned
  // range hits only the data reads (adaptive planning probes are fail-fast).
  const std::string text(40000, 'x');
  MemDevice base(text);
  fault::FaultPlan plan;
  const std::uint64_t lo = 2000 + sched.rand() % 4000;
  plan.permanent.emplace_back(lo, lo + 500);
  storage::FaultDevice fault(&base, plan);
  ingest::SingleDeviceSource src(
      borrow(&fault), std::make_shared<ingest::FixedFormat>(100), 0);
  ingest::RateMatchingController::Options copt;
  copt.initial_bytes = 1024;
  copt.min_bytes = 256;
  copt.max_bytes = 4096;
  ingest::RateMatchingController controller(copt);
  ingest::IngestPipeline pipeline(src, fast_recovery(2, /*degrade=*/true));
  std::uint64_t bytes = 0;
  auto stats = pipeline.run_adaptive(controller, [&](IngestChunk& chunk) {
    sched.yield_point();
    bytes += chunk.size();
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_GE(stats->chunks_skipped, 1u);
  EXPECT_EQ(bytes + stats->bytes_skipped, text.size());
}

// Consumer failure during a producer backoff wait: cancellation must cut the
// sleep short and the pipeline must still join promptly.
TEST_P(FaultStress, ConsumerErrorCancelsBackoffWait) {
  test::SchedFuzz fuzz(GetParam());
  test::SchedFuzz::Stream sched(fuzz, 0);
  const std::string text = make_text(400);
  MemDevice base(text);
  ingest::SingleDeviceSource clean(
      borrow(&base), std::make_shared<ingest::LineFormat>(), 256);
  auto extents = clean.plan();
  ASSERT_TRUE(extents.ok());

  fault::FaultPlan plan;
  plan.seed = GetParam();
  plan.transient_p = 0.9;  // producer spends most of its time backing off
  storage::FaultDevice fault(&base, plan);
  ingest::SingleDeviceSource src(
      borrow(&fault), std::make_shared<ingest::LineFormat>(), 256);

  fault::Recovery recovery = fast_recovery(1000);
  recovery.policy.backoff_base_s = 0.050;  // long sleeps worth cancelling
  recovery.policy.backoff_max_s = 0.100;
  ingest::IngestPipeline pipeline(src, recovery);
  const auto t0 = std::chrono::steady_clock::now();
  auto stats = pipeline.run_planned(*extents, [&](IngestChunk&) -> Status {
    sched.yield_point();
    return Status::Internal("consumer bailed");
  });
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(stats.ok());
  // Either the consumer's error or — if the producer lost the race and the
  // consumer never got a chunk — nothing at all; in both cases the teardown
  // must be prompt, not 1000 x 50ms of backoff.
  EXPECT_LT(took, 30.0);
}

// Deadline expiry under a permanently failing read: bounded give-up time.
TEST_P(FaultStress, DeadlineBoundsRetryLoop) {
  test::SchedFuzz fuzz(GetParam());
  const std::string text = make_text(100);
  MemDevice base(text);
  fault::FaultPlan plan;
  plan.permanent.emplace_back(0, text.size());  // everything is poisoned
  storage::FaultDevice fault(&base, plan);

  fault::RetryPolicy policy;
  policy.max_attempts = 1u << 30;  // attempts alone would never stop it
  policy.backoff_base_s = 0.002;
  policy.backoff_mult = 1.0;
  policy.backoff_max_s = 0.002;
  policy.read_deadline_s = 0.100;
  policy.seed = GetParam();
  fault::RetryingDevice dev(&fault, policy);
  char buf[64];
  const auto t0 = std::chrono::steady_clock::now();
  auto n = dev.read_at(0, std::span<char>(buf, sizeof(buf)));
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(dev.deadline_expired(), 1u);
  EXPECT_LT(took, 5.0);  // gave up around the 100ms budget
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultStress,
                         ::testing::ValuesIn(test::kStressSeeds));

}  // namespace
}  // namespace supmr
