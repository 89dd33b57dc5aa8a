// Fault-injection stress: the pipeline over a RetryingDevice (the one
// seam that retries a read), over planned and controller-sized extents,
// under seeded probabilistic faults. The hang risks hunted here: a
// permanent fault must surface as a clean Status with the producer joined
// (not a wedged double buffer), a consumer error must tear down within the
// in-flight read's deadline, and degrade-mode skips must keep the stream
// advancing. Each TEST_P runs per seed in kStressSeeds; sanitizer builds
// run this suite under TSan/ASan.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

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

fault::RetryPolicy fast_policy(std::uint32_t attempts, std::uint64_t seed) {
  fault::RetryPolicy p;
  p.max_attempts = attempts;
  p.backoff_base_s = 1e-5;
  p.backoff_max_s = 1e-4;
  p.jitter = 0.5;
  p.seed = seed;
  return p;
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
  // Plan over the clean device, so faults target only the data path.
  ingest::SingleDeviceSource clean(
      borrow(&base), std::make_shared<ingest::LineFormat>(), 256);
  auto extents = clean.plan();
  ASSERT_TRUE(extents.ok());

  fault::FaultPlan plan;
  plan.seed = GetParam();
  plan.transient_p = 0.25;
  storage::FaultDevice fault(&base, plan);
  // 8 attempts: P(8 consecutive transients) = 0.25^8 ~ 1.5e-5 per chunk.
  fault::RetryingDevice retrying(&fault, fast_policy(8, GetParam()));
  ingest::SingleDeviceSource src(
      borrow(&retrying), std::make_shared<ingest::LineFormat>(), 256);

  ingest::IngestPipeline pipeline(src);
  std::uint64_t bytes = 0;
  auto stats = pipeline.run_planned(*extents, [&](IngestChunk& chunk) {
    sched.yield_point();
    bytes += chunk.data.size();
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(bytes, text.size());
  EXPECT_EQ(stats->chunks_skipped, 0u);
  // Every injected transient was absorbed by exactly one device retry.
  EXPECT_EQ(retrying.retries(), fault.transients_injected());
  EXPECT_EQ(retrying.exhausted(), 0u);
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
  fault::RetryingDevice retrying(&fault, fast_policy(3, GetParam()));
  ingest::SingleDeviceSource src(
      borrow(&retrying), std::make_shared<ingest::LineFormat>(), 256);

  ingest::IngestPipeline pipeline(src);
  auto stats = pipeline.run_planned(*extents, [&](IngestChunk&) {
    sched.yield_point();
    return Status::Ok();
  });
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kIoError);
  EXPECT_NE(stats.status().message().find("[fault:"), std::string::npos);
  EXPECT_EQ(fault.range_hits(), 3u);  // one read, three attempts
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
  fault::RetryingDevice retrying(&fault, fast_policy(2, GetParam()));
  ingest::SingleDeviceSource src(
      borrow(&retrying), std::make_shared<ingest::LineFormat>(), 256);

  ingest::IngestPipeline pipeline(src, /*degrade=*/true);
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
  // Each skipped chunk was read twice (one retry), each by the device alone.
  EXPECT_EQ(retrying.retries(), stats->chunks_skipped);
  EXPECT_EQ(fault.range_hits(), 2 * stats->chunks_skipped);
}

// Adaptive ingest: same degrade discipline with controller-driven chunk
// sizing — skips must advance the stream, not stall or re-read forever.
TEST_P(FaultStress, AdaptiveDegradeAdvancesPastPoison) {
  test::SchedFuzz fuzz(GetParam());
  test::SchedFuzz::Stream sched(fuzz, 0);
  // FixedFormat: boundary adjustment is pure arithmetic, so the poisoned
  // range hits only the data reads.
  const std::string text(40000, 'x');
  MemDevice base(text);
  fault::FaultPlan plan;
  const std::uint64_t lo = 2000 + sched.rand() % 4000;
  plan.permanent.emplace_back(lo, lo + 500);
  storage::FaultDevice fault(&base, plan);
  fault::RetryingDevice retrying(&fault, fast_policy(2, GetParam()));
  ingest::SingleDeviceSource src(
      borrow(&retrying), std::make_shared<ingest::FixedFormat>(100), 0);
  ingest::RateMatchingController::Options copt;
  copt.initial_bytes = 1024;
  copt.min_bytes = 256;
  copt.max_bytes = 4096;
  ingest::RateMatchingController controller(copt);
  ingest::IngestPipeline pipeline(src, /*degrade=*/true);
  std::uint64_t bytes = 0;
  auto stats = pipeline.run_adaptive(controller, [&](IngestChunk& chunk) {
    sched.yield_point();
    bytes += chunk.size();
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_GE(stats->chunks_skipped, 1u);
  EXPECT_EQ(bytes + stats->bytes_skipped, text.size());
  EXPECT_EQ(retrying.retries(), stats->chunks_skipped);
}

// Consumer failure while the producer sits in a retrying device read: no
// backoff is cut short any more, so teardown waits out at most the
// in-flight read's budget. With read_deadline_s set, the pipeline must
// join within a small multiple of that deadline, however many attempts
// the policy would allow.
TEST_P(FaultStress, ConsumerErrorJoinsWithinReadDeadline) {
  test::SchedFuzz fuzz(GetParam());
  test::SchedFuzz::Stream sched(fuzz, 0);
  const std::string text = make_text(400);
  MemDevice base(text);
  ingest::SingleDeviceSource clean(
      borrow(&base), std::make_shared<ingest::LineFormat>(), 256);
  auto extents = clean.plan();
  ASSERT_TRUE(extents.ok());
  ASSERT_GT(extents->size(), 2u);

  // Chunk 0 reads cleanly; every later chunk's data is poisoned, so the
  // producer is inside a backing-off read when the consumer bails.
  fault::FaultPlan plan;
  plan.permanent.emplace_back((*extents)[1].offset, text.size());
  storage::FaultDevice fault(&base, plan);
  constexpr double kDeadline = 0.200;
  fault::RetryPolicy policy = fast_policy(1000, GetParam());
  policy.backoff_base_s = 0.020;
  policy.backoff_max_s = 0.050;
  policy.read_deadline_s = kDeadline;
  fault::RetryingDevice retrying(&fault, policy);
  ingest::SingleDeviceSource src(
      borrow(&retrying), std::make_shared<ingest::LineFormat>(), 256);

  ingest::IngestPipeline pipeline(src);
  std::chrono::steady_clock::time_point bailed;
  auto stats = pipeline.run_planned(*extents, [&](IngestChunk&) -> Status {
    // Bail only once the producer's read of chunk 1 has failed at least
    // once, so it is backing off inside the device when the error lands.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (fault.range_hits() == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    sched.yield_point();
    bailed = std::chrono::steady_clock::now();
    return Status::Internal("consumer bailed");
  });
  const double teardown =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - bailed)
          .count();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
  ASSERT_GT(fault.range_hits(), 0u);
  // 1000 attempts at 20-50 ms would take far longer; the deadline ends the
  // in-flight read, and the producer reads no further chunk after cancel.
  EXPECT_LT(teardown, 10 * kDeadline);
  EXPECT_EQ(retrying.deadline_expired(), 1u);
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
