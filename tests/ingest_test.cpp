// Unit + property tests for the ingest layer: record formats, boundary
// adjustment, chunk planning, sources, and the double-buffered pipeline
// (including failure injection).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>

#include "common/rng.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/fault_device.hpp"
#include "storage/mem_device.hpp"
#include "wload/teragen.hpp"
#include "wload/text_corpus.hpp"

namespace supmr::ingest {
namespace {

using storage::MemDevice;

std::shared_ptr<const storage::Device> mem(std::string s,
                                           std::string name = "mem") {
  return std::make_shared<MemDevice>(std::move(s), std::move(name));
}

// --------------------------------------------------------- record formats

TEST(LineFormat, FindsNewline) {
  LineFormat f;
  const std::string s = "abc\ndef\n";
  EXPECT_EQ(f.find_record_end(std::span<const char>(s.data(), s.size()), 0),
            4u);
  EXPECT_EQ(f.find_record_end(std::span<const char>(s.data(), s.size()), 4),
            8u);
  EXPECT_FALSE(
      f.find_record_end(std::span<const char>(s.data(), 3), 0).has_value());
}

TEST(CrlfFormat, FindsCrlfOnly) {
  CrlfFormat f;
  const std::string s = "ab\rcd\r\nef";
  // The lone \r at 2 is not a terminator.
  EXPECT_EQ(f.find_record_end(std::span<const char>(s.data(), s.size()), 0),
            7u);
}

TEST(CrlfFormat, NoTerminator) {
  CrlfFormat f;
  const std::string s = "abcdef\r";  // dangling \r at end
  EXPECT_FALSE(
      f.find_record_end(std::span<const char>(s.data(), s.size()), 0)
          .has_value());
}

TEST(FixedFormat, ArithmeticBoundaries) {
  FixedFormat f(10);
  const std::string s(25, 'x');
  EXPECT_EQ(f.find_record_end(std::span<const char>(s.data(), s.size()), 0),
            10u);
  EXPECT_EQ(f.find_record_end(std::span<const char>(s.data(), s.size()), 10),
            20u);
  EXPECT_FALSE(
      f.find_record_end(std::span<const char>(s.data(), s.size()), 20)
          .has_value());
}

TEST(AdjustSplit, AdvancesToRecordEnd) {
  auto dev = mem("aaaa\nbbbb\ncccc\n");
  LineFormat f;
  auto split = f.adjust_split(*dev, 2);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, 5u);  // end of "aaaa\n"
  split = f.adjust_split(*dev, 5);  // already on a boundary: stays put
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, 5u);
}

TEST(AdjustSplit, CrlfBoundaryStaysPut) {
  auto dev = mem("aa\r\nbb\r\n");
  CrlfFormat f;
  auto split = f.adjust_split(*dev, 4);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, 4u);
  split = f.adjust_split(*dev, 3);  // between \r and \n: mid-record
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, 4u);
}

TEST(AdjustSplit, ClampsToDeviceSize) {
  auto dev = mem("abc\n");
  LineFormat f;
  auto split = f.adjust_split(*dev, 100);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, 4u);
}

TEST(AdjustSplit, RecordRunningToEofEndsAtEof) {
  auto dev = mem("abc\ndef-without-newline");
  LineFormat f;
  auto split = f.adjust_split(*dev, 6);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, dev->size());
}

TEST(AdjustSplit, CrlfStraddlingScanWindows) {
  // Place the \r exactly at a 64 KiB window edge; the scanner must still
  // find the \r\n pair.
  std::string s(64 * 1024 - 1, 'x');
  s += "\r\n";
  s += std::string(100, 'y');
  s += "\r\n";
  auto dev = mem(s);
  CrlfFormat f;
  auto split = f.adjust_split(*dev, 10);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, 64u * 1024 + 1);
}

TEST(AdjustSplit, FixedFormatNeverReadsDevice) {
  MemDevice base(std::string(100, 'x'));
  auto plan = fault::FaultPlan::parse("permanent=0-100");  // any read fails
  ASSERT_TRUE(plan.ok());
  storage::FaultDevice dev(&base, *plan);
  FixedFormat f(10);
  auto split = f.adjust_split(dev, 25);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, 30u);
}

// ------------------------------------------------------ inter-file plans

TEST(SingleDeviceSource, WholeInputWhenChunkZero) {
  SingleDeviceSource src(mem("aa\nbb\ncc\n"),
                         std::make_shared<LineFormat>(), 0);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->size(), 1u);
  EXPECT_EQ((*plan)[0].offset, 0u);
  EXPECT_EQ((*plan)[0].length, 9u);
}

TEST(SingleDeviceSource, PlansAtRecordBoundaries) {
  // 4 records of 5 bytes each; chunk target 7 -> boundaries at 10, 20.
  SingleDeviceSource src(mem("aaaa\nbbbb\ncccc\ndddd\n"),
                         std::make_shared<LineFormat>(), 7);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->size(), 2u);
  EXPECT_EQ((*plan)[0].length, 10u);
  EXPECT_EQ((*plan)[1].offset, 10u);
  EXPECT_EQ((*plan)[1].length, 10u);
}

TEST(SingleDeviceSource, EmptyDeviceEmptyPlan) {
  SingleDeviceSource src(mem(""), std::make_shared<LineFormat>(), 4);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty());
}

TEST(SingleDeviceSource, ReadChunkMatchesExtent) {
  SingleDeviceSource src(mem("aaaa\nbbbb\ncccc\n"),
                         std::make_shared<LineFormat>(), 5);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());
  IngestChunk chunk;
  ASSERT_TRUE(src.read_chunk((*plan)[1], chunk).ok());
  EXPECT_EQ(chunk.index, 1u);
  EXPECT_EQ(std::string(chunk.data.begin(), chunk.data.end()), "bbbb\n");
}

// Property: for random record layouts and chunk sizes, the plan covers every
// byte exactly once, in order, and never splits a record.
class InterFilePlanProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(InterFilePlanProperty, CoversInputAtBoundaries) {
  const auto [seed, chunk_target] = GetParam();
  Xoshiro256 rng(seed);
  std::string data;
  std::vector<std::uint64_t> record_ends;
  const int records = 50 + int(rng.uniform(100));
  for (int r = 0; r < records; ++r) {
    const std::size_t len = 1 + rng.uniform(30);
    for (std::size_t i = 0; i < len; ++i)
      data.push_back(static_cast<char>('a' + rng.uniform(26)));
    data.push_back('\n');
    record_ends.push_back(data.size());
  }
  SingleDeviceSource src(mem(data), std::make_shared<LineFormat>(),
                         chunk_target);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());
  std::uint64_t expected_offset = 0;
  for (std::size_t i = 0; i < plan->size(); ++i) {
    const ChunkExtent& e = (*plan)[i];
    EXPECT_EQ(e.index, i);
    EXPECT_EQ(e.offset, expected_offset);  // contiguous, in order
    EXPECT_GT(e.length, 0u);
    expected_offset += e.length;
    // Every chunk must end exactly at a record end.
    EXPECT_TRUE(std::binary_search(record_ends.begin(), record_ends.end(),
                                   e.offset + e.length))
        << "chunk " << i << " ends mid-record at " << e.offset + e.length;
  }
  EXPECT_EQ(expected_offset, data.size());  // full coverage
}

INSTANTIATE_TEST_SUITE_P(
    RandomLayouts, InterFilePlanProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(8, 64, 256, 1 << 20)));

TEST(SingleDeviceSource, TeraSortStylePlanIsRecordAligned) {
  wload::TeraGenConfig cfg;
  cfg.num_records = 1000;
  auto dev = mem(wload::teragen_to_string(cfg));
  SingleDeviceSource src(dev, std::make_shared<CrlfFormat>(), 977);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());
  for (const auto& e : *plan) {
    EXPECT_EQ((e.offset + e.length) % cfg.record_bytes, 0u);
  }
}

// ------------------------------------------------------ intra-file plans

TEST(MultiFileSource, PaperExample30FilesBy4) {
  // Paper §III.A.1: 30 files, 4 per chunk -> 7 chunks of 4 + 1 chunk of 2.
  std::vector<std::shared_ptr<const storage::Device>> files;
  for (int i = 0; i < 30; ++i) files.push_back(mem("data" + std::to_string(i)));
  MultiFileSource src(files, 4);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->size(), 8u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ((*plan)[i].files.size(), 4u);
  EXPECT_EQ((*plan)[7].files.size(), 2u);
}

TEST(MultiFileSource, ChunkCollocatesWholeFiles) {
  std::vector<std::shared_ptr<const storage::Device>> files = {
      mem("AAAA", "f0"), mem("BB", "f1"), mem("CCCCCC", "f2")};
  MultiFileSource src(files, 3);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->size(), 1u);
  IngestChunk chunk;
  ASSERT_TRUE(src.read_chunk((*plan)[0], chunk).ok());
  EXPECT_EQ(std::string(chunk.data.begin(), chunk.data.end()),
            "AAAABBCCCCCC");
  ASSERT_EQ(chunk.files.size(), 3u);
  EXPECT_EQ(chunk.files[1].file_index, 1u);
  EXPECT_EQ(chunk.files[1].offset_in_chunk, 4u);
  EXPECT_EQ(chunk.files[1].length, 2u);
}

TEST(MultiFileSource, ZeroMeansAllFilesOneChunk) {
  std::vector<std::shared_ptr<const storage::Device>> files = {
      mem("a"), mem("b"), mem("c")};
  MultiFileSource src(files, 0);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->size(), 1u);
}

TEST(MultiFileSource, TotalBytesSumsFiles) {
  std::vector<std::shared_ptr<const storage::Device>> files = {
      mem("12345"), mem("123")};
  MultiFileSource src(files, 1);
  EXPECT_EQ(src.total_bytes(), 8u);
}

// --------------------------------------------------------------- pipeline

TEST(IngestPipeline, DeliversChunksInOrder) {
  SingleDeviceSource src(mem("aa\nbb\ncc\ndd\n"),
                         std::make_shared<LineFormat>(), 3);
  IngestPipeline pipeline(src);
  std::vector<std::string> seen;
  auto stats = pipeline.run([&](IngestChunk& c) {
    seen.emplace_back(c.data.begin(), c.data.end());
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(seen, (std::vector<std::string>{"aa\n", "bb\n", "cc\n", "dd\n"}));
  EXPECT_EQ(stats->total_bytes, 12u);
  EXPECT_EQ(stats->chunks.size(), 4u);
}

TEST(IngestPipeline, ReassemblesExactInput) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 200 * 1024;
  const std::string text = wload::generate_text(cfg);
  SingleDeviceSource src(mem(text), std::make_shared<LineFormat>(), 7777);
  IngestPipeline pipeline(src);
  std::string rebuilt;
  auto stats = pipeline.run([&](IngestChunk& c) {
    rebuilt.append(c.data.data(), c.data.size());
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(rebuilt, text);
}

TEST(IngestPipeline, RejectsPlanNotNumberedFromZero) {
  // The per-chunk stats are addressed by extent index, so a sub-plan that
  // starts at chunk 1 must be refused before any chunk is read.
  SingleDeviceSource src(mem("aa\nbb\ncc\ndd\n"),
                         std::make_shared<LineFormat>(), 3);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->size(), 4u);
  plan->erase(plan->begin());
  IngestPipeline pipeline(src);
  int calls = 0;
  auto stats = pipeline.run_planned(*plan, [&](IngestChunk&) {
    ++calls;
    return Status::Ok();
  });
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 0);
}

TEST(IngestPipeline, EmptyInputRunsZeroChunks) {
  SingleDeviceSource src(mem(""), std::make_shared<LineFormat>(), 4);
  IngestPipeline pipeline(src);
  int calls = 0;
  auto stats = pipeline.run([&](IngestChunk&) {
    ++calls;
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(stats->total_s, 0.0);
}

// Counts completed read_at calls and lets a test wait for the n-th.
class ReadCounter final : public storage::Device {
 public:
  explicit ReadCounter(std::shared_ptr<const storage::Device> base)
      : base_(std::move(base)) {}

  StatusOr<std::size_t> read_at(std::uint64_t offset,
                                std::span<char> out) const override {
    StatusOr<std::size_t> n = base_->read_at(offset, out);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++reads_;
    }
    cv_.notify_all();
    return n;
  }
  std::uint64_t size() const override { return base_->size(); }
  std::string_view name() const override { return "read-counter"; }

  // Waits until `n` reads have completed; false on timeout.
  bool wait_for_reads(std::uint64_t n, std::chrono::seconds timeout) const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return reads_ >= n; });
  }

 private:
  std::shared_ptr<const storage::Device> base_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::uint64_t reads_ = 0;
};

TEST(IngestPipeline, IngestOverlapsProcessing) {
  // The producer reads chunk i+1 while the consumer still holds chunk i:
  // process(c_i) waits for c_{i+1}'s read to complete, and a pipeline that
  // read only after process() returned would never let that wait end.
  std::string data;
  for (int i = 0; i < 8; ++i) data += std::string(1000, 'a') + "\n";
  SingleDeviceSource planner(mem(data), std::make_shared<LineFormat>(), 1001);
  auto plan = planner.plan();
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->size(), 8u);
  auto counter = std::make_shared<ReadCounter>(mem(data));
  SingleDeviceSource src(counter, std::make_shared<LineFormat>(), 1001);
  IngestPipeline pipeline(src);
  auto stats = pipeline.run_planned(*plan, [&](IngestChunk& chunk) {
    const std::uint64_t next = chunk.index + 1;
    if (next < plan->size() &&
        !counter->wait_for_reads(next + 1, std::chrono::seconds(10))) {
      return Status::Internal("chunk " + std::to_string(next) +
                              " was not read while chunk " +
                              std::to_string(chunk.index) + " was held");
    }
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats->chunks.size(), 8u);
}

TEST(IngestPipeline, ProducerErrorSurfacesAfterDrain) {
  // Plan on the clean device (planning probes are fail-fast and would trip
  // the poisoned range), then run the planned extents over a faulted stack
  // whose second chunk's data read hits the range.
  auto clean = std::make_shared<MemDevice>(
      std::string(100, 'x') + "\n" + std::string(100, 'y') + "\n");
  SingleDeviceSource planner(clean, std::make_shared<LineFormat>(), 100);
  auto plan = planner.plan();
  ASSERT_TRUE(plan.ok());
  auto fault_plan = fault::FaultPlan::parse("permanent=150-160");
  ASSERT_TRUE(fault_plan.ok());
  auto faulted =
      std::make_shared<storage::FaultDevice>(clean, *fault_plan);
  SingleDeviceSource src(faulted, std::make_shared<LineFormat>(), 100);
  IngestPipeline pipeline(src);
  int processed = 0;
  auto stats = pipeline.run_planned(*plan, [&](IngestChunk&) {
    ++processed;
    return Status::Ok();
  });
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kIoError);
  EXPECT_EQ(processed, 1);  // first chunk was fine and got processed
}

TEST(IngestPipeline, ConsumerErrorCancelsProducer) {
  std::string data;
  for (int i = 0; i < 100; ++i) data += std::string(100, 'z') + "\n";
  SingleDeviceSource src(mem(data), std::make_shared<LineFormat>(), 101);
  IngestPipeline pipeline(src);
  int calls = 0;
  auto stats = pipeline.run([&](IngestChunk&) {
    if (++calls == 3) return Status::Internal("app exploded");
    return Status::Ok();
  });
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 3);
}

TEST(IngestPipeline, ChunkLargerThanInputYieldsOneChunk) {
  SingleDeviceSource src(mem("tiny\n"), std::make_shared<LineFormat>(),
                         1 << 30);
  IngestPipeline pipeline(src);
  int calls = 0;
  auto stats = pipeline.run([&](IngestChunk& c) {
    ++calls;
    EXPECT_EQ(c.data.size(), 5u);
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(calls, 1);
}

TEST(IngestPipeline, RecordLargerThanChunkStillWorks) {
  // One 10 KB record with a 16-byte chunk target: boundary adjustment grows
  // the chunk to the record end.
  std::string data = std::string(10000, 'r') + "\n" + "tail\n";
  SingleDeviceSource src(mem(data), std::make_shared<LineFormat>(), 16);
  IngestPipeline pipeline(src);
  std::vector<std::size_t> sizes;
  auto stats = pipeline.run([&](IngestChunk& c) {
    sizes.push_back(c.data.size());
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 10001u);
  EXPECT_EQ(sizes[1], 5u);
}

TEST(IngestPipeline, MultiFileChunksCarryFileSpans) {
  std::vector<std::shared_ptr<const storage::Device>> files;
  for (int i = 0; i < 6; ++i)
    files.push_back(mem("file" + std::to_string(i) + "\n"));
  MultiFileSource src(files, 2);
  IngestPipeline pipeline(src);
  std::size_t chunks = 0, spans = 0;
  auto stats = pipeline.run([&](IngestChunk& c) {
    ++chunks;
    spans += c.files.size();
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(chunks, 3u);
  EXPECT_EQ(spans, 6u);
}


// Property: CRLF-terminated random layouts plan at record boundaries too
// (the TeraSort format, with \r bytes also allowed INSIDE records).
class CrlfPlanProperty : public ::testing::TestWithParam<int> {};

TEST_P(CrlfPlanProperty, CoversInputAtCrlfBoundaries) {
  Xoshiro256 rng(GetParam() * 37);
  std::string data;
  std::vector<std::uint64_t> record_ends;
  const int records = 30 + int(rng.uniform(80));
  for (int r = 0; r < records; ++r) {
    const std::size_t len = 1 + rng.uniform(40);
    for (std::size_t i = 0; i < len; ++i) {
      // Payload may contain lone \r and \n bytes; only "\r\n" terminates.
      const int c = int(rng.uniform(30));
      if (c == 0) data.push_back('\r');
      else if (c == 1) data.push_back('\n');
      else data.push_back(static_cast<char>('a' + c % 26));
    }
    // Avoid an accidental \r directly before the terminator creating an
    // earlier boundary than intended — that is still a VALID boundary for
    // the format, so only the coverage property is asserted, not exact ends.
    data += "\r\n";
    record_ends.push_back(data.size());
  }
  const std::uint64_t chunk_target = 16 + rng.uniform(200);
  SingleDeviceSource src(mem(data), std::make_shared<CrlfFormat>(),
                         chunk_target);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());
  std::uint64_t expected_offset = 0;
  for (const auto& e : *plan) {
    EXPECT_EQ(e.offset, expected_offset);
    EXPECT_GT(e.length, 0u);
    expected_offset += e.length;
    // Every chunk ends right after some "\r\n" pair.
    const std::uint64_t end = e.offset + e.length;
    ASSERT_GE(end, 2u);
    EXPECT_EQ(data[end - 2], '\r');
    EXPECT_EQ(data[end - 1], '\n');
  }
  EXPECT_EQ(expected_offset, data.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrlfPlanProperty, ::testing::Range(1, 9));

// Fixed-width plans are pure arithmetic: equal chunks of whole records.
TEST(FixedFormatPlan, WholeRecordChunks) {
  const std::uint64_t rb = 64;
  auto dev = mem(std::string(rb * 100, 'x'));
  SingleDeviceSource src(dev, std::make_shared<FixedFormat>(rb), 1000);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());
  for (const auto& e : *plan) {
    EXPECT_EQ(e.offset % rb, 0u);
    EXPECT_EQ(e.length % rb, 0u);
  }
}

}  // namespace
}  // namespace supmr::ingest
