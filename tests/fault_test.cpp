// Fault layer tests: RetryPolicy/RetrySession arithmetic, the FaultPlan
// grammar, plan-driven FaultDevice injection (and the call/range accounting
// contract), the RetryingDevice read seam and the pipeline over it (one
// seam: a failing chunk is read max_attempts times), degrade-mode
// accounting, the unified MapReduceJob::run(ExecMode) entry point, and the
// report fields.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/word_count.hpp"
#include "common/json.hpp"
#include "core/job.hpp"
#include "core/report.hpp"
#include "fault/fault_plan.hpp"
#include "fault/retry_policy.hpp"
#include "fault/retrying_device.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "obs/metrics.hpp"
#include "storage/fault_device.hpp"
#include "storage/mem_device.hpp"

namespace supmr {
namespace {

using fault::FaultPlan;
using fault::RetryPolicy;
using fault::RetrySession;
using fault::RetryingDevice;
using storage::FaultDevice;
using storage::MemDevice;

// A policy with near-zero waits so retry tests stay fast.
RetryPolicy fast_policy(std::uint32_t attempts) {
  RetryPolicy p;
  p.max_attempts = attempts;
  p.backoff_base_s = 1e-5;
  p.backoff_max_s = 1e-4;
  p.jitter = 0.0;
  return p;
}

// ------------------------------------------------------- RetryPolicy

TEST(RetryPolicy, DefaultIsFailFast) {
  RetryPolicy p;
  EXPECT_FALSE(p.enabled());
  RetrySession session(p, 0);
  EXPECT_FALSE(session.next_backoff(Status::IoError("x")).has_value());
  EXPECT_EQ(session.failed_attempts(), 1u);
}

TEST(RetrySession, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy p;
  p.max_attempts = 5;  // 5 total attempts -> 4 backoff waits
  p.backoff_base_s = 0.001;
  p.backoff_mult = 2.0;
  p.backoff_max_s = 0.004;
  p.jitter = 0.0;
  RetrySession session(p, 0);
  const Status failure = Status::IoError("x");
  EXPECT_DOUBLE_EQ(*session.next_backoff(failure), 0.001);
  EXPECT_DOUBLE_EQ(*session.next_backoff(failure), 0.002);
  EXPECT_DOUBLE_EQ(*session.next_backoff(failure), 0.004);
  EXPECT_DOUBLE_EQ(*session.next_backoff(failure), 0.004);  // capped
  EXPECT_FALSE(session.next_backoff(failure).has_value());  // exhausted
}

TEST(RetrySession, JitterStaysInBoundsAndReplaysFromSeed) {
  RetryPolicy p;
  p.max_attempts = 50;
  p.backoff_base_s = 0.010;
  p.backoff_mult = 1.0;
  p.jitter = 0.5;
  p.seed = 1234;
  RetrySession a(p, 7);
  RetrySession b(p, 7);  // same policy + stream -> identical waits
  RetrySession c(p, 8);  // different stream -> decorrelated
  const Status failure = Status::IoError("x");
  bool any_differs_from_c = false;
  for (int i = 0; i < 20; ++i) {
    const double wa = *a.next_backoff(failure);
    const double wb = *b.next_backoff(failure);
    const double wc = *c.next_backoff(failure);
    EXPECT_DOUBLE_EQ(wa, wb);
    EXPECT_GE(wa, 0.005 - 1e-12);
    EXPECT_LE(wa, 0.010 + 1e-12);
    if (wa != wc) any_differs_from_c = true;
  }
  EXPECT_TRUE(any_differs_from_c);
}

TEST(RetrySession, NonRetryableFailsImmediately) {
  RetrySession session(fast_policy(10), 0);
  EXPECT_FALSE(
      session.next_backoff(Status::InvalidArgument("bad")).has_value());
  EXPECT_EQ(session.failed_attempts(), 1u);
}

TEST(RetrySession, DeadlineBlocksLongWait) {
  RetryPolicy p;
  p.max_attempts = 100;
  p.backoff_base_s = 0.200;  // first wait alone exceeds the deadline
  p.jitter = 0.0;
  p.read_deadline_s = 0.050;
  RetrySession session(p, 0);
  EXPECT_FALSE(session.next_backoff(Status::IoError("x")).has_value());
  EXPECT_TRUE(session.deadline_expired());
  const Status annotated = session.annotate(Status::IoError("x"));
  EXPECT_NE(annotated.message().find("deadline"), std::string::npos);
}

TEST(RetrySession, AnnotateReportsAttemptCount) {
  RetrySession session(fast_policy(3), 0);
  const Status failure = Status::IoError("disk went away");
  EXPECT_TRUE(session.next_backoff(failure).has_value());
  EXPECT_TRUE(session.next_backoff(failure).has_value());
  EXPECT_FALSE(session.next_backoff(failure).has_value());
  const Status annotated = session.annotate(failure);
  EXPECT_EQ(annotated.code(), StatusCode::kIoError);
  EXPECT_NE(annotated.message().find("disk went away"), std::string::npos);
  EXPECT_NE(annotated.message().find("3 attempt(s)"), std::string::npos);
}

// ---------------------------------------------------- duration grammar

TEST(ParseDuration, AcceptsUnitsAndBareSeconds) {
  EXPECT_DOUBLE_EQ(*fault::parse_duration("5ms"), 0.005);
  EXPECT_DOUBLE_EQ(*fault::parse_duration("250us"), 0.000250);
  EXPECT_DOUBLE_EQ(*fault::parse_duration("1.5s"), 1.5);
  EXPECT_DOUBLE_EQ(*fault::parse_duration("2"), 2.0);
}

TEST(ParseDuration, RejectsGarbageAndNegatives) {
  EXPECT_FALSE(fault::parse_duration("fast").ok());
  EXPECT_FALSE(fault::parse_duration("-1s").ok());
  EXPECT_FALSE(fault::parse_duration("").ok());
}

// ------------------------------------------------------ FaultPlan

TEST(FaultPlan, ParsesFullSpec) {
  auto plan = FaultPlan::parse(
      "seed=7;transient=0.05@12;permanent=10-20,30-40;slow=0.01:5ms");
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_DOUBLE_EQ(plan->transient_p, 0.05);
  EXPECT_EQ(plan->transient_after, 12u);
  ASSERT_EQ(plan->permanent.size(), 2u);
  EXPECT_EQ(plan->permanent[0], (std::pair<std::uint64_t, std::uint64_t>{
                                    10, 20}));
  EXPECT_DOUBLE_EQ(plan->slow_p, 0.01);
  EXPECT_DOUBLE_EQ(plan->slow_delay_s, 0.005);
  EXPECT_FALSE(plan->empty());
}

TEST(FaultPlan, RoundTripsThroughToString) {
  auto plan = FaultPlan::parse(
      "seed=99;transient=0.5;permanent=0-4096;slow=0.25:10ms");
  ASSERT_TRUE(plan.ok());
  auto again = FaultPlan::parse(plan->to_string());
  ASSERT_TRUE(again.ok()) << again.status().to_string()
                          << " spec=" << plan->to_string();
  EXPECT_EQ(again->seed, plan->seed);
  EXPECT_DOUBLE_EQ(again->transient_p, plan->transient_p);
  EXPECT_EQ(again->permanent, plan->permanent);
  EXPECT_DOUBLE_EQ(again->slow_delay_s, plan->slow_delay_s);
}

TEST(FaultPlan, RejectsBadSpecs) {
  EXPECT_FALSE(FaultPlan::parse("transientt=0.1").ok());   // typo'd clause
  EXPECT_FALSE(FaultPlan::parse("transient=1.5").ok());    // p > 1
  EXPECT_FALSE(FaultPlan::parse("permanent=20-10").ok());  // inverted range
  EXPECT_FALSE(FaultPlan::parse("slow=0.1").ok());         // missing delay
  EXPECT_FALSE(FaultPlan::parse("fail_call=x").ok());      // not an index
}

TEST(FaultPlan, FailCallListParsesAndRoundTrips) {
  auto plan = FaultPlan::parse("seed=3;fail_call=0,7,19");
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_EQ(plan->fail_calls, (std::vector<std::uint64_t>{0, 7, 19}));
  EXPECT_FALSE(plan->empty());
  EXPECT_TRUE(plan->fails_call(7));
  EXPECT_FALSE(plan->fails_call(8));
  auto again = FaultPlan::parse(plan->to_string());
  ASSERT_TRUE(again.ok()) << plan->to_string();
  EXPECT_EQ(again->fail_calls, plan->fail_calls);
}

TEST(FaultPlan, PoisonsUsesHalfOpenOverlap) {
  FaultPlan plan;
  plan.permanent.emplace_back(50, 60);
  EXPECT_TRUE(plan.poisons(55, 10));
  EXPECT_TRUE(plan.poisons(45, 10));   // overlaps from below
  EXPECT_FALSE(plan.poisons(60, 10));  // hi is exclusive
  EXPECT_FALSE(plan.poisons(40, 10));  // lo is inclusive on the range
}

// ------------------------------------------------------ FaultDevice

TEST(FaultDevice, RangeHitsDoNotConsumeCallIndices) {
  MemDevice base(std::string(100, 'p'));
  FaultPlan plan;
  plan.permanent.emplace_back(0, 10);
  FaultDevice dev(&base, plan);
  char buf[10];
  EXPECT_FALSE(dev.read_at(0, std::span<char>(buf, 10)).ok());
  EXPECT_FALSE(dev.read_at(5, std::span<char>(buf, 10)).ok());
  EXPECT_EQ(dev.calls(), 0u);  // poisoned reads are accounted separately
  EXPECT_EQ(dev.range_hits(), 2u);
  EXPECT_TRUE(dev.read_at(10, std::span<char>(buf, 10)).ok());
  EXPECT_EQ(dev.calls(), 1u);
}

TEST(FaultDevice, CallFaultLandsOnSameCallWithRangesPresent) {
  // The accounting fix: adding a poisoned range must not shift which call a
  // call-indexed fault lands on.
  MemDevice base(std::string(100, 'p'));
  FaultPlan plan;
  plan.permanent.emplace_back(90, 100);
  plan.fail_calls.push_back(1);
  FaultDevice dev(&base, plan);
  char buf[10];
  EXPECT_FALSE(dev.read_at(95, std::span<char>(buf, 5)).ok());  // range hit
  EXPECT_TRUE(dev.read_at(0, std::span<char>(buf, 10)).ok());   // call 0
  EXPECT_FALSE(dev.read_at(10, std::span<char>(buf, 10)).ok()); // call 1
  EXPECT_TRUE(dev.read_at(20, std::span<char>(buf, 10)).ok());  // call 2
  EXPECT_EQ(dev.calls(), 3u);
  EXPECT_EQ(dev.range_hits(), 1u);
}

TEST(FaultDevice, SeededTransientsReplay) {
  const std::string data(4096, 'd');
  FaultPlan plan;
  plan.seed = 42;
  plan.transient_p = 0.5;
  std::vector<bool> first_run;
  for (int run = 0; run < 2; ++run) {
    MemDevice base(data);
    FaultDevice dev(&base, plan);
    std::vector<bool> outcomes;
    char buf[64];
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(dev.read_at(i * 64, std::span<char>(buf, 64)).ok());
    }
    if (run == 0) {
      first_run = outcomes;
      EXPECT_GT(dev.transients_injected(), 0u);
      EXPECT_LT(dev.transients_injected(), 64u);
    } else {
      EXPECT_EQ(outcomes, first_run);  // same seed, same order -> same faults
    }
  }
}

TEST(FaultDevice, TransientAfterGateSparesEarlyReads) {
  MemDevice base(std::string(4096, 'd'));
  FaultPlan plan;
  plan.transient_p = 1.0;
  plan.transient_after = 3;
  FaultDevice dev(&base, plan);
  char buf[16];
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(dev.read_at(i * 16, std::span<char>(buf, 16)).ok());
  }
  EXPECT_FALSE(dev.read_at(100, std::span<char>(buf, 16)).ok());
}

TEST(FaultDevice, SlowReadsCompleteWithData) {
  MemDevice base("hello world");
  FaultPlan plan;
  plan.slow_p = 1.0;
  plan.slow_delay_s = 0.001;
  FaultDevice dev(&base, plan);
  char buf[5];
  auto n = dev.read_at(0, std::span<char>(buf, 5));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, 5), "hello");
  EXPECT_EQ(dev.slow_injected(), 1u);
}

// ---------------------------------------------------- RetryingDevice

TEST(RetryingDevice, AbsorbsTransientFault) {
  MemDevice base("abcdefgh");
  FaultPlan plan;
  plan.fail_calls.push_back(0);  // first read fails once, the retry succeeds
  FaultDevice fault(&base, plan);
  RetryingDevice dev(&fault, fast_policy(3));
  char buf[8];
  auto n = dev.read_at(0, std::span<char>(buf, 8));
  ASSERT_TRUE(n.ok()) << n.status().to_string();
  EXPECT_EQ(std::string(buf, *n), "abcdefgh");
  EXPECT_EQ(dev.retries(), 1u);
  EXPECT_EQ(dev.exhausted(), 0u);
}

TEST(RetryingDevice, ExhaustsOnPermanentFaultAndAnnotates) {
  MemDevice base(std::string(64, 'x'));
  FaultPlan plan;
  plan.permanent.emplace_back(0, 64);
  FaultDevice fault(&base, plan);
  RetryingDevice dev(&fault, fast_policy(4));
  char buf[16];
  auto n = dev.read_at(0, std::span<char>(buf, 16));
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kIoError);
  EXPECT_NE(n.status().message().find("[fault:"), std::string::npos);
  EXPECT_EQ(dev.retries(), 3u);  // 4 attempts = 3 retries
  EXPECT_EQ(dev.exhausted(), 1u);
}

TEST(RetryingDevice, FailFastPolicyLeavesStatusUntouched) {
  MemDevice base(std::string(64, 'x'));
  FaultPlan plan;
  plan.permanent.emplace_back(0, 64);
  FaultDevice fault(&base, plan);
  RetryingDevice dev(&fault, RetryPolicy{});  // default: fail fast
  char buf[16];
  auto n = dev.read_at(0, std::span<char>(buf, 16));
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().message().find("[fault:"), std::string::npos);
  EXPECT_EQ(dev.retries(), 0u);
}

TEST(RetryingDevice, DeadlineBoundsPermanentFault) {
  MemDevice base(std::string(64, 'x'));
  FaultPlan plan;
  plan.permanent.emplace_back(0, 64);
  FaultDevice fault(&base, plan);
  RetryPolicy p;
  p.max_attempts = 1000;
  p.backoff_base_s = 0.200;
  p.jitter = 0.0;
  p.read_deadline_s = 0.050;
  RetryingDevice dev(&fault, p);
  char buf[16];
  const auto t0 = std::chrono::steady_clock::now();
  auto n = dev.read_at(0, std::span<char>(buf, 16));
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(dev.deadline_expired(), 1u);
  EXPECT_LT(took, 1.0);  // gave up near the 50ms budget, not 1000 backoffs
  EXPECT_NE(n.status().message().find("deadline"), std::string::npos);
}

// ------------------------------------------- pipeline chunk recovery
//
// The pipeline reads each chunk once; every retry happens in a
// RetryingDevice under the source, so these stacks compose one.

std::shared_ptr<const storage::Device> borrow(const storage::Device* dev) {
  return std::shared_ptr<const storage::Device>(dev,
                                                [](const storage::Device*) {});
}

TEST(PipelineRecovery, TransientChunkReadRetriesAndSucceeds) {
  const std::string text(8 * 100, 'a');  // 8 fixed chunks of 100 bytes
  MemDevice base(text);
  // FixedFormat plans without reading the device, so the fail_call lands on
  // the third chunk's data read.
  FaultPlan fplan;
  fplan.fail_calls.push_back(2);
  FaultDevice fault(&base, fplan);
  RetryingDevice retrying(&fault, fast_policy(3));
  ingest::SingleDeviceSource src(
      borrow(&retrying), std::make_shared<ingest::FixedFormat>(100), 100);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(fault.calls(), 0u);

  ingest::IngestPipeline pipeline(src);
  std::uint64_t bytes = 0;
  auto stats = pipeline.run_planned(*plan, [&](ingest::IngestChunk& chunk) {
    bytes += chunk.data.size();
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(bytes, text.size());  // nothing lost
  EXPECT_EQ(retrying.retries(), 1u);
  EXPECT_EQ(fault.calls(), 9u);  // 8 chunk reads + the one retry
  EXPECT_EQ(stats->chunks_skipped, 0u);
}

TEST(PipelineRecovery, PermanentFaultFailsJobCleanly) {
  const std::string text(8 * 100, 'a');
  MemDevice base(text);
  FaultPlan plan_spec;
  plan_spec.permanent.emplace_back(300, 400);  // chunk 3 is poisoned
  FaultDevice fault(&base, plan_spec);
  RetryingDevice retrying(&fault, fast_policy(3));
  ingest::SingleDeviceSource src(
      borrow(&retrying), std::make_shared<ingest::FixedFormat>(100), 100);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());

  ingest::IngestPipeline pipeline(src);
  auto stats = pipeline.run_planned(
      *plan, [](ingest::IngestChunk&) { return Status::Ok(); });
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kIoError);
  // The device's annotation survives the pipeline.
  EXPECT_NE(stats.status().message().find("[fault:"), std::string::npos);
  EXPECT_EQ(retrying.exhausted(), 1u);
}

TEST(PipelineRecovery, DegradeModeSkipsPoisonedChunkWithAccounting) {
  const std::string text(8 * 100, 'a');
  MemDevice base(text);
  FaultPlan plan_spec;
  plan_spec.permanent.emplace_back(300, 400);
  FaultDevice fault(&base, plan_spec);
  RetryingDevice retrying(&fault, fast_policy(2));
  ingest::SingleDeviceSource src(
      borrow(&retrying), std::make_shared<ingest::FixedFormat>(100), 100);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->size(), 8u);

  ingest::IngestPipeline pipeline(src, /*degrade=*/true);
  std::uint64_t bytes = 0;
  auto stats = pipeline.run_planned(*plan, [&](ingest::IngestChunk& chunk) {
    bytes += chunk.data.size();
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats->chunks_skipped, 1u);
  EXPECT_EQ(stats->bytes_skipped, 100u);
  EXPECT_EQ(bytes, text.size() - 100);  // the other 7 chunks all arrived
  EXPECT_TRUE(stats->degraded());
  EXPECT_TRUE(stats->chunks[3].skipped);
  EXPECT_FALSE(stats->chunks[2].skipped);
  EXPECT_EQ(retrying.retries(), 1u);  // 2 attempts on chunk 3, no more
}

// The one-seam property: a chunk whose read keeps failing is read exactly
// max_attempts times, by the RetryingDevice alone. The permanent range sits
// inside chunk 1's data, away from every record-boundary probe, so
// planning reads the stack cleanly and only that chunk is lost.
TEST(PipelineRecovery, FailingChunkIsReadMaxAttemptsTimes) {
  std::string text;
  for (int i = 0; i < 64; ++i) text += std::string(99, 'a' + i % 26) + "\n";
  MemDevice base(text);  // 64 lines of 100 bytes
  FaultPlan plan_spec;
  plan_spec.permanent.emplace_back(1450, 1460);
  FaultDevice fault(&base, plan_spec);
  RetryingDevice retrying(&fault, fast_policy(3));
  ingest::SingleDeviceSource src(
      borrow(&retrying), std::make_shared<ingest::LineFormat>(), 1000);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  ASSERT_EQ(plan->size(), 7u);
  ASSERT_EQ(fault.range_hits(), 0u);  // planning stayed clean
  ASSERT_LE((*plan)[1].offset, 1450u);
  ASSERT_GE((*plan)[1].offset + (*plan)[1].length, 1460u);

  const std::uint64_t calls_before = fault.calls();
  ingest::IngestPipeline pipeline(src, /*degrade=*/true);
  std::string delivered;
  auto stats = pipeline.run_planned(*plan, [&](ingest::IngestChunk& chunk) {
    delivered.append(chunk.bytes().data(), chunk.size());
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(fault.range_hits(), 3u);  // max_attempts, not 3 x 3
  EXPECT_EQ(retrying.retries(), 2u);
  EXPECT_EQ(retrying.exhausted(), 1u);
  // Range hits take no call index, so calls() counts the other six chunks'
  // reads only: none of them was re-read.
  EXPECT_EQ(fault.calls() - calls_before, 6u);
  EXPECT_EQ(stats->chunks_skipped, 1u);
  EXPECT_TRUE(stats->chunks[1].skipped);
  EXPECT_EQ(stats->bytes_skipped, (*plan)[1].length);
  // Every other chunk arrived whole and in order.
  const std::uint64_t cut = (*plan)[1].offset;
  const std::uint64_t resume = cut + (*plan)[1].length;
  EXPECT_EQ(delivered, text.substr(0, cut) + text.substr(resume));
}

// --------------------------------------- unified run(ExecMode) + report

TEST(ExecMode, NamesAreStable) {
  EXPECT_EQ(core::exec_mode_name(core::ExecMode::kOriginal), "original");
  EXPECT_EQ(core::exec_mode_name(core::ExecMode::kIngestMR), "supmr");
  EXPECT_EQ(core::exec_mode_name(core::ExecMode::kAdaptive), "adaptive");
}

std::string corpus_text() {
  std::string text;
  for (int i = 0; i < 200; ++i)
    text += "alpha beta gamma delta line" + std::to_string(i) + "\n";
  return text;
}

TEST(UnifiedRun, AllModesAgreeOnWordCounts) {
  const std::string text = corpus_text();
  std::map<core::ExecMode, std::uint64_t> distinct;
  for (core::ExecMode mode :
       {core::ExecMode::kOriginal, core::ExecMode::kIngestMR,
        core::ExecMode::kAdaptive}) {
    auto dev = std::make_shared<MemDevice>(text, "corpus");
    ingest::SingleDeviceSource src(
        dev, std::make_shared<ingest::LineFormat>(), 512);
    apps::WordCountApp app;
    core::JobConfig config;
    config.mode = mode;
    config.num_map_threads = 2;
    config.num_reduce_threads = 2;
    core::MapReduceJob job(app, src, config);
    // kAdaptive with no set_chunk_controller(): the job's own
    // RateMatchingController sizes the chunks.
    auto result = job.run(config.mode);
    ASSERT_TRUE(result.ok())
        << core::exec_mode_name(mode) << ": " << result.status().to_string();
    EXPECT_EQ(result->chunks_skipped, 0u);
    distinct[mode] = result->result_count;
    EXPECT_EQ(result->phases.chunked, mode != core::ExecMode::kOriginal);
  }
  EXPECT_EQ(distinct[core::ExecMode::kOriginal],
            distinct[core::ExecMode::kIngestMR]);
  EXPECT_EQ(distinct[core::ExecMode::kOriginal],
            distinct[core::ExecMode::kAdaptive]);
}

TEST(UnifiedRun, LegacyWrappersStillRun) {
  const std::string text = corpus_text();
  auto dev = std::make_shared<MemDevice>(text, "corpus");
  ingest::SingleDeviceSource src(dev, std::make_shared<ingest::LineFormat>(),
                                 512);
  apps::WordCountApp app;
  core::JobConfig config;
  config.num_map_threads = 2;
  config.num_reduce_threads = 2;
  core::MapReduceJob job(app, src, config);
  auto result = job.run(core::ExecMode::kIngestMR);  // deprecated wrapper
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_GT(result->result_count, 0u);
}

TEST(UnifiedRun, DegradedJobReportsSkippedChunksInJson) {
  // Both the original runtime and SupMR read through the ingest pipeline,
  // so both degrade around the poisoned chunk.
  const std::string text = corpus_text();
  for (core::ExecMode mode :
       {core::ExecMode::kOriginal, core::ExecMode::kIngestMR}) {
    SCOPED_TRACE(std::string(core::exec_mode_name(mode)));
    MemDevice base(text);
    FaultPlan plan_spec;
    plan_spec.permanent.emplace_back(1024, 1536);
    FaultDevice fault(&base, plan_spec);
    // FixedFormat: split adjustment is pure arithmetic, so the poison hits
    // a chunk data read (where degrade applies), never a planning probe.
    ingest::SingleDeviceSource src(
        borrow(&fault), std::make_shared<ingest::FixedFormat>(64), 512);
    apps::WordCountApp app;
    core::JobConfig config;
    config.degrade = true;
    config.num_map_threads = 2;
    config.num_reduce_threads = 2;
    core::MapReduceJob job(app, src, config);
    auto result = job.run(mode);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_TRUE(result->degraded());
    EXPECT_GE(result->chunks_skipped, 1u);
    EXPECT_GT(result->bytes_skipped, 0u);
    EXPECT_EQ(result->phases.chunked, mode != core::ExecMode::kOriginal);

    const std::string json = core::job_result_to_json(*result);
    EXPECT_EQ(parse_json(json).status().message(), "");
    EXPECT_NE(json.find("\"chunks_skipped\""), std::string::npos);
    EXPECT_NE(json.find("\"bytes_skipped\""), std::string::npos);
    EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
    EXPECT_NE(json.find("\"skipped\""), std::string::npos);
  }
}

TEST(StatusToJson, EmitsValidErrorReport) {
  const std::string json =
      core::status_to_json(Status::IoError("disk \"died\" mid-read"));
  EXPECT_EQ(parse_json(json).status().message(), "");
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("\"code\""), std::string::npos);
}

}  // namespace
}  // namespace supmr
