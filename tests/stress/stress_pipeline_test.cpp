// Ingest pipeline error-path and cancellation stress, over planned and
// controller-sized (adaptive) extents. The key interleaving: when the
// consumer fails (or throws) on an early chunk, the producer is usually
// blocked waiting for a live-chunk slot — the run must wake it before
// joining or it deadlocks (the ctest TIMEOUT turns that hang into a
// failure). Each TEST_P runs per seed in kStressSeeds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>

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

ingest::SingleDeviceSource make_source(
    const std::shared_ptr<const storage::Device>& dev) {
  return ingest::SingleDeviceSource(
      dev, std::make_shared<ingest::LineFormat>(), 256);
}

class PipelineStress : public ::testing::TestWithParam<std::uint64_t> {};

// The satellite scenario: processing fails on chunk 0 while the producer
// races ahead and blocks waiting for a live-chunk slot. A pipeline that
// joins without waking it hangs here forever.
TEST_P(PipelineStress, ConsumerErrorOnChunk0DoesNotDeadlock) {
  test::SchedFuzz fuzz(GetParam());
  auto dev = std::make_shared<MemDevice>(make_text(400), "m");
  auto src = make_source(dev);
  ingest::IngestPipeline pipeline(src);

  test::SchedFuzz::Stream sched(fuzz, 0);
  auto result = pipeline.run([&](IngestChunk& chunk) -> Status {
    // Give the producer time to read chunk 1 and block on a slot.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    sched.yield_point();
    EXPECT_EQ(chunk.index, 0u);
    return Status::Internal("chunk 0 processing failed");
  });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST_P(PipelineStress, ConsumerErrorOnRandomChunkDoesNotDeadlock) {
  test::SchedFuzz fuzz(GetParam());
  test::SchedFuzz::Stream sched(fuzz, 0);
  auto dev = std::make_shared<MemDevice>(make_text(400), "m");
  auto src = make_source(dev);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());
  ASSERT_GT(plan->size(), 4u);
  const std::uint64_t fail_at = sched.rand() % plan->size();

  ingest::IngestPipeline pipeline(src);
  std::uint64_t processed = 0;
  auto result = pipeline.run_planned(*plan, [&](IngestChunk& chunk) -> Status {
    sched.yield_point();
    if (chunk.index == fail_at) return Status::Internal("injected");
    ++processed;
    return Status::Ok();
  });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(processed, fail_at);  // chunks arrive in stream order
}

// Regression for the producer join guard: an exception escaping process()
// used to destroy the (joinable, possibly blocked) producer thread, i.e.
// std::terminate. Now it propagates after a clean cancel + join.
TEST_P(PipelineStress, ProcessThrowingPropagatesWithoutTerminate) {
  test::SchedFuzz fuzz(GetParam());
  auto dev = std::make_shared<MemDevice>(make_text(400), "m");
  auto src = make_source(dev);
  ingest::IngestPipeline pipeline(src);
  EXPECT_THROW(
      pipeline.run([&](IngestChunk&) -> Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        throw std::runtime_error("mapper exploded");
      }),
      std::runtime_error);
}

TEST_P(PipelineStress, ProducerIoErrorSurfacesAfterDrain) {
  test::SchedFuzz fuzz(GetParam());
  test::SchedFuzz::Stream sched(fuzz, 0);
  MemDevice base(make_text(400));
  fault::FaultPlan fplan;
  fplan.fail_calls.push_back(sched.rand() % 12);
  storage::FaultDevice fault(&base, fplan);
  auto dev = std::shared_ptr<const storage::Device>(
      &fault, [](const storage::Device*) {});
  auto src = make_source(dev);
  ingest::IngestPipeline pipeline(src);

  auto result = pipeline.run([&](IngestChunk&) -> Status {
    sched.yield_point();
    return Status::Ok();
  });
  // The fault can land in planning or in ingest; either way the run must
  // finish (join) and surface an IO error — never hang or drop it.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_P(PipelineStress, HappyPathDeliversAllBytesInOrderUnderFuzz) {
  test::SchedFuzz fuzz(GetParam());
  test::SchedFuzz::Stream sched(fuzz, 0);
  const std::string text = make_text(400);
  auto dev = std::make_shared<MemDevice>(text, "m");
  auto src = make_source(dev);
  ingest::IngestPipeline pipeline(src);

  std::string reassembled;
  std::uint64_t next_index = 0;
  auto result = pipeline.run([&](IngestChunk& chunk) -> Status {
    EXPECT_EQ(chunk.index, next_index++);
    reassembled.append(chunk.data.data(), chunk.data.size());
    sched.yield_point();
    return Status::Ok();
  });
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(reassembled, text);
  EXPECT_EQ(result->total_bytes, text.size());
}

// ------------------------------------------------------- adaptive ingest

ingest::RateMatchingController::Options small_chunks() {
  ingest::RateMatchingController::Options opt;
  opt.initial_bytes = 512;
  opt.min_bytes = 128;
  opt.max_bytes = 2048;
  opt.round_floor_s = 0.0001;
  return opt;
}

TEST_P(PipelineStress, AdaptiveConsumerErrorOnChunk0DoesNotDeadlock) {
  test::SchedFuzz fuzz(GetParam());
  auto src = make_source(std::make_shared<MemDevice>(make_text(400), "m"));
  ingest::RateMatchingController controller(small_chunks());
  ingest::IngestPipeline pipeline(src);

  auto result =
      pipeline.run_adaptive(controller, [&](IngestChunk& chunk) -> Status {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(chunk.index, 0u);
    return Status::Internal("chunk 0 processing failed");
  });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST_P(PipelineStress, AdaptiveProcessThrowingPropagatesWithoutTerminate) {
  test::SchedFuzz fuzz(GetParam());
  auto src = make_source(std::make_shared<MemDevice>(make_text(400), "m"));
  ingest::RateMatchingController controller(small_chunks());
  ingest::IngestPipeline pipeline(src);
  EXPECT_THROW(
      pipeline.run_adaptive(controller, [&](IngestChunk&) -> Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        throw std::runtime_error("mapper exploded");
      }),
      std::runtime_error);
}

TEST_P(PipelineStress, AdaptiveHappyPathReassemblesInput) {
  test::SchedFuzz fuzz(GetParam());
  test::SchedFuzz::Stream sched(fuzz, 0);
  const std::string text = make_text(400);
  auto src = make_source(std::make_shared<MemDevice>(text, "m"));
  ingest::RateMatchingController controller(small_chunks());
  ingest::IngestPipeline pipeline(src);

  std::string reassembled;
  auto result =
      pipeline.run_adaptive(controller, [&](IngestChunk& chunk) -> Status {
    reassembled.append(chunk.bytes().data(), chunk.size());
    sched.yield_point();
    return Status::Ok();
  });
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(reassembled, text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineStress,
                         ::testing::ValuesIn(test::kStressSeeds));

}  // namespace
}  // namespace supmr
