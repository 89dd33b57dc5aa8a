// Ingest pipeline error-path and cancellation stress. The key
// interleaving: when the consumer fails (or throws) on an early chunk, the
// producer is usually blocked waiting for a live-chunk slot — the run must
// wake it before joining or it deadlocks (the ctest TIMEOUT turns that hang
// into a failure). AtMostTwoChunksLive asserts the live-chunk bound itself.
// Each TEST_P runs per seed in kStressSeeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "fault/retrying_device.hpp"
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

// ------------------------------------------------------ chunk residency

// Counts the chunks one pipeline holds live, at the device seam. A chunk is
// live from the start of its read until the process callback for it, or
// for a later chunk, returns; a failed read ends it.
// FixedFormat plans without reading the device, so every read is a chunk
// read, keyed by its offset.
class LiveChunkProbe final : public storage::Device {
 public:
  explicit LiveChunkProbe(std::shared_ptr<const storage::Device> base)
      : base_(std::move(base)) {}

  StatusOr<std::size_t> read_at(std::uint64_t offset,
                                std::span<char> out) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      live_.insert(offset);
      max_live_ = std::max(max_live_, live_.size());
    }
    StatusOr<std::size_t> n = base_->read_at(offset, out);
    if (!n.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      live_.erase(offset);
    }
    return n;
  }
  std::uint64_t size() const override { return base_->size(); }
  std::string_view name() const override { return "live-chunk-probe"; }

  // The process callback for the chunk at `offset` is returning.
  void processed(std::uint64_t offset) {
    std::lock_guard<std::mutex> lock(mu_);
    live_.erase(live_.begin(), live_.upper_bound(offset));
  }

  std::size_t max_live() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_live_;
  }

 private:
  std::shared_ptr<const storage::Device> base_;
  mutable std::mutex mu_;
  mutable std::set<std::uint64_t> live_;
  mutable std::size_t max_live_ = 0;
};

constexpr std::uint32_t kRecordBytes = 16;
constexpr std::uint64_t kChunkBytes = 64;
constexpr std::uint64_t kChunks = 32;

struct ProbedInput {
  std::shared_ptr<LiveChunkProbe> probe;
  std::shared_ptr<fault::RetryingDevice> retrying;
  ingest::SingleDeviceSource source;
};

// The probe sits on top of the device stack, so a chunk stays live through
// every attempt the RetryingDevice under it makes (`attempts` per read).
ProbedInput probed_input(const fault::FaultPlan& faults = {},
                         std::uint32_t attempts = 1) {
  auto base = std::make_shared<MemDevice>(
      std::string(kChunks * kChunkBytes, 'r'), "m");
  fault::RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.backoff_base_s = 1e-5;
  policy.backoff_max_s = 1e-4;
  auto retrying = std::make_shared<fault::RetryingDevice>(
      std::make_shared<storage::FaultDevice>(base, faults), policy);
  auto probe = std::make_shared<LiveChunkProbe>(retrying);
  ingest::SingleDeviceSource source(
      probe, std::make_shared<ingest::FixedFormat>(kRecordBytes), kChunkBytes);
  return {probe, retrying, std::move(source)};
}

// A consumer slow enough that the producer reads ahead into the
// second slot while a chunk is being processed.
std::function<Status(IngestChunk&)> slow_consumer(LiveChunkProbe& probe,
                                                  test::SchedFuzz::Stream& sched,
                                                  std::uint64_t& bytes) {
  return [&probe, &sched, &bytes](IngestChunk& chunk) -> Status {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    sched.yield_point();
    bytes += chunk.size();
    probe.processed(chunk.offset);
    return Status::Ok();
  };
}

TEST_P(PipelineStress, AtMostTwoChunksLive) {
  static_assert(ingest::kMaxLiveChunks == 2);
  test::SchedFuzz fuzz(GetParam());
  const std::uint64_t total = kChunks * kChunkBytes;

  {
    SCOPED_TRACE("planned");
    test::SchedFuzz::Stream sched(fuzz, 0);
    ProbedInput in = probed_input();
    ingest::IngestPipeline pipeline(in.source);
    std::uint64_t bytes = 0;
    auto result = pipeline.run(slow_consumer(*in.probe, sched, bytes));
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(bytes, total);
    EXPECT_EQ(in.probe->max_live(), ingest::kMaxLiveChunks);
  }
  {
    SCOPED_TRACE("transient faults retried");
    test::SchedFuzz::Stream sched(fuzz, 1);
    fault::FaultPlan faults;
    faults.fail_calls = {1, 2, 7, 20};
    ProbedInput in = probed_input(faults, /*attempts=*/3);
    ingest::IngestPipeline pipeline(in.source);
    std::uint64_t bytes = 0;
    auto result = pipeline.run(slow_consumer(*in.probe, sched, bytes));
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(bytes, total);
    EXPECT_EQ(in.retrying->retries(), faults.fail_calls.size());
    EXPECT_EQ(in.probe->max_live(), ingest::kMaxLiveChunks);
  }
  {
    SCOPED_TRACE("degrade over a permanent range");
    test::SchedFuzz::Stream sched(fuzz, 2);
    fault::FaultPlan faults;
    faults.permanent.emplace_back(5 * kChunkBytes, 7 * kChunkBytes);
    ProbedInput in = probed_input(faults, /*attempts=*/2);
    ingest::IngestPipeline pipeline(in.source, /*degrade=*/true);
    std::uint64_t bytes = 0;
    auto result = pipeline.run(slow_consumer(*in.probe, sched, bytes));
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(result->chunks_skipped, 2u);
    EXPECT_EQ(bytes, total - 2 * kChunkBytes);
    EXPECT_EQ(in.probe->max_live(), ingest::kMaxLiveChunks);
  }
  {
    SCOPED_TRACE("two pipelines sharing one buffer pool");
    ingest::ChunkBufferPool shared(
        2 * ingest::ChunkBufferPool::kBuffersPerPipeline);
    ProbedInput a = probed_input(), b = probed_input();
    std::uint64_t bytes_a = 0, bytes_b = 0;
    Status status_a;
    std::thread other([&] {
      test::SchedFuzz::Stream sched(fuzz, 3);
      ingest::IngestPipeline pipeline(a.source, false, &shared);
      status_a = pipeline.run(slow_consumer(*a.probe, sched, bytes_a)).status();
    });
    test::SchedFuzz::Stream sched(fuzz, 4);
    ingest::IngestPipeline pipeline(b.source, false, &shared);
    auto result = pipeline.run(slow_consumer(*b.probe, sched, bytes_b));
    other.join();
    ASSERT_TRUE(status_a.ok()) << status_a.to_string();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(bytes_a, total);
    EXPECT_EQ(bytes_b, total);
    EXPECT_EQ(a.probe->max_live(), ingest::kMaxLiveChunks);
    EXPECT_EQ(b.probe->max_live(), ingest::kMaxLiveChunks);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineStress,
                         ::testing::ValuesIn(test::kStressSeeds));

}  // namespace
}  // namespace supmr
