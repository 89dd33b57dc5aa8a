// Zero-copy mmap ingest path + ingest boundary-correctness regressions.
//
// Covers, in one place:
//   * common/scan.hpp — SWAR delimiter scanning, byte classification and
//     lane masks, differentially against the obvious per-byte reference;
//   * apps::tokenize_words — words and their hashes against a byte-at-a-time
//     specification written here;
//   * ChunkBufferPool / IngestChunk — owned-buffer recycling and the
//     borrowed-view variant, including 0-byte chunks;
//   * MmapDevice — read_at/view_at agreement over a real file;
//   * SingleDeviceSource / MultiFileSource io=mmap — chunks are borrowed
//     when the device lends views, byte-identical to the copying path, and
//     fall back to copying under wrapper stacks (throttle/fault/retry —
//     you cannot retry a page fault);
//   * RecordFormat::adjust_split — the short-read regression (a device
//     capping its per-call transfer used to make the scan give up mid-file
//     and report "record runs to EOF") and terminators straddling the
//     kScanWindow edge, including "\r\n" at exact window multiples.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/tokenize.hpp"
#include "apps/word_count.hpp"
#include "common/scan.hpp"
#include "containers/hash.hpp"
#include "core/job.hpp"
#include "fault/retrying_device.hpp"
#include "ingest/adaptive.hpp"
#include "ingest/chunk.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/file_device.hpp"
#include "storage/mem_device.hpp"
#include "storage/mmap_device.hpp"
#include "storage/rate_limiter.hpp"
#include "storage/throttled_device.hpp"
#include "wload/text_corpus.hpp"

namespace supmr {
namespace {

// Seeded line-structured corpus of roughly `bytes` (generate_text ends at a
// line boundary, so the exact size varies slightly).
std::string corpus(std::uint64_t bytes, std::uint64_t seed) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = bytes;
  cfg.seed = seed;
  return wload::generate_text(cfg);
}

// ------------------------------------------------------------- scan.hpp

TEST(Scan, FindByteMatchesReference) {
  // Deterministic byte soup with matches at varied 8-byte alignments.
  std::string s;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    s += static_cast<char>(x & 0xff);
  }
  const std::span<const char> hay(s.data(), s.size());
  for (std::size_t from = 0; from < 70; ++from) {
    for (char needle : {'\n', '\r', '\0', 'a', static_cast<char>(0xff)}) {
      const void* p =
          std::memchr(s.data() + from, needle, s.size() - from);
      auto got = scan::find_byte(hay, from, needle);
      if (p == nullptr) {
        EXPECT_FALSE(got.has_value()) << "from=" << from;
      } else {
        ASSERT_TRUE(got.has_value()) << "from=" << from;
        EXPECT_EQ(*got, static_cast<std::size_t>(
                            static_cast<const char*>(p) - s.data()));
      }
    }
  }
  EXPECT_FALSE(scan::find_byte({}, 0, 'x').has_value());
  EXPECT_FALSE(scan::find_byte(hay, s.size(), 'a').has_value());
  EXPECT_FALSE(scan::find_byte(hay, s.size() + 5, 'a').has_value());
}

TEST(Scan, FindCrlfEdgeCases) {
  const std::string s = "ab\rcd\r\nef\r\r\ngh\r";
  const std::span<const char> hay(s.data(), s.size());
  auto first = scan::find_crlf(hay, 0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 5u);  // the '\r' of the first "\r\n"; lone '\r' skipped
  auto second = scan::find_crlf(hay, *first + 2);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 10u);  // "\r\r\n": the match is the second '\r'
  // The trailing lone '\r' must NOT match — its '\n' may be in the next
  // window, and callers rescan it via the one-byte overlap.
  EXPECT_FALSE(scan::find_crlf(hay, *second + 2).has_value());
  EXPECT_FALSE(scan::find_crlf({}, 0).has_value());
}

TEST(Scan, WordClassificationMatchesCLocale) {
  for (int c = 0; c < 256; ++c) {
    const unsigned char u = static_cast<unsigned char>(c);
    EXPECT_EQ(scan::is_word_byte(static_cast<char>(c)),
              std::isalnum(u) != 0 && u < 128)
        << "byte " << c;
    if (u < 128) {
      EXPECT_EQ(scan::to_lower_ascii(static_cast<char>(c)),
                static_cast<char>(std::tolower(u)))
          << "byte " << c;
    }
  }
}

TEST(Scan, WordScanMatchesPerByteReference) {
  // Text with words placed to hit every alignment of the 8-byte prefilter,
  // plus punctuation in [0x30,0x7b) gaps (':', '@', '[') that are prefilter
  // candidates but not word bytes.
  const std::string s =
      "  one:two @three    [brackets]\t\nfour5  ------- x ZZZ\x80\xff{|}~  q";
  const std::span<const char> hay(s.data(), s.size());
  for (std::size_t from = 0; from <= s.size(); ++from) {
    std::size_t want_start = from;
    while (want_start < s.size() && !scan::is_word_byte(s[want_start])) {
      ++want_start;
    }
    EXPECT_EQ(scan::find_word_start(hay, from), want_start) << "from=" << from;
  }
}

TEST(Scan, LaneMasksMatchTables) {
  // Every byte value in every lane, with the other seven lanes holding each
  // byte value in turn, so a carry or borrow across lanes shows too.
  std::size_t mismatches = 0;
  std::string first;
  for (int fill = 0; fill < 256; ++fill) {
    for (int c = 0; c < 256; ++c) {
      for (int lane = 0; lane < 8; ++lane) {
        char bytes[8];
        std::memset(bytes, fill, sizeof(bytes));
        bytes[lane] = static_cast<char>(c);
        const std::uint64_t w = scan::load_u64(bytes);
        const std::uint64_t word = scan::word_lanes(w);
        const std::uint64_t upper = scan::upper_lanes(w);
        const std::uint64_t lowered = w | upper >> 2;
        bool ok = ((word | upper) & ~scan::kHighBits) == 0;
        for (int i = 0; i < 8; ++i) {
          const char b = bytes[i];
          ok = ok && ((word >> (8 * i + 7)) & 1) == scan::is_word_byte(b) &&
               ((upper >> (8 * i + 7)) & 1) == (b >= 'A' && b <= 'Z') &&
               static_cast<char>(lowered >> (8 * i)) ==
                   scan::to_lower_ascii(b);
        }
        if (!ok && mismatches++ == 0) {
          first = "byte " + std::to_string(c) + " in lane " +
                  std::to_string(lane) + " among " + std::to_string(fill);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
}

// Byte-at-a-time specification of apps::tokenize_words that shares nothing
// with scan.hpp: maximal runs of [0-9A-Za-z], lowercased, truncated to
// kMaxWord.
std::vector<std::string> reference_words(std::span<const char> s) {
  const auto word_byte = [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') ||
           (c >= 'a' && c <= 'z');
  };
  std::vector<std::string> out;
  for (std::size_t i = 0; i < s.size();) {
    if (!word_byte(s[i])) {
      ++i;
      continue;
    }
    std::string w;
    for (; i < s.size() && word_byte(s[i]); ++i) {
      if (w.size() < apps::kMaxWord)
        w.push_back(s[i] >= 'A' && s[i] <= 'Z' ? s[i] - 'A' + 'a' : s[i]);
    }
    out.push_back(std::move(w));
  }
  return out;
}

// Tokenizes a heap copy of exactly `s`, so ASan flags any load past the
// span, and checks the words and each word's hash.
void expect_tokenizes_like_reference(std::string_view s) {
  const std::vector<char> exact(s.begin(), s.end());
  const std::span<const char> span(exact.data(), exact.size());
  std::vector<std::string> got;
  apps::tokenize_words(span, [&](std::string_view w, std::uint64_t h) {
    EXPECT_EQ(h, containers::hash_bytes(w)) << "word \"" << w << "\"";
    got.emplace_back(w);
  });
  EXPECT_EQ(got, reference_words(span)) << "text \"" << s << "\"";
}

TEST(Tokenize, MatchesBytewiseReference) {
  // Seeded soup: word bytes, the neighbours of each word-byte range
  // (/ : @ [ ` {), delimiters and bytes >= 0x80.
  const std::string alphabet =
      "aqzAQZ059/:@[`{ \n\t\x7f\x80\xc3\xff";
  std::string soup;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Half the draws are letters, a third of them upper case, so words of
    // every length up to ~20 occur.
    const char letter =
        static_cast<char>(((x >> 16) % 3 == 0 ? 'A' : 'a') + (x >> 8) % 26);
    soup += x % 2 ? letter : alphabet[(x >> 8) % alphabet.size()];
  }
  expect_tokenizes_like_reference(soup);
  // Every alignment and every short span (fewer than 8 bytes) of the soup.
  for (std::size_t from = 0; from < 64; ++from) {
    for (std::size_t len = 0; len <= 24; ++len)
      expect_tokenizes_like_reference(std::string_view(soup).substr(from, len));
  }
  // Words around the block size and kMaxWord, at every alignment, ending on
  // the span's last byte or followed by a delimiter.
  for (std::size_t len : {7u, 8u, 9u, 255u, 256u, 300u}) {
    std::string word;
    for (std::size_t i = 0; i < len; ++i)
      word += static_cast<char>((i % 3 == 0 ? 'A' : 'a') + i % 26);
    for (std::size_t pad = 0; pad < 9; ++pad) {
      const std::string lead(pad, pad % 2 ? '@' : ' ');
      expect_tokenizes_like_reference(lead + word);
      expect_tokenizes_like_reference(lead + word + "[x");
      expect_tokenizes_like_reference(lead + word + " " + word + "`");
    }
  }
}

// ------------------------------------- IngestChunk and ChunkBufferPool

TEST(IngestChunk, OwnedAndBorrowedBytes) {
  ingest::IngestChunk chunk;
  EXPECT_FALSE(chunk.borrowed());
  EXPECT_TRUE(chunk.empty());
  EXPECT_EQ(chunk.size(), 0u);  // 0-byte owned chunk is well-defined

  chunk.data = {'a', 'b', 'c'};
  EXPECT_EQ(chunk.size(), 3u);
  EXPECT_EQ(chunk.bytes()[1], 'b');

  const std::string backing = "0123456789";
  chunk.set_view(std::span<const char>(backing.data() + 2, 5));
  EXPECT_TRUE(chunk.borrowed());
  EXPECT_EQ(chunk.size(), 5u);
  EXPECT_EQ(chunk.bytes().data(), backing.data() + 2);  // genuinely borrowed
  EXPECT_EQ(chunk.data.size(), 3u);  // owned storage untouched for recycling

  chunk.set_view({});  // 0-byte borrowed chunk is well-defined too
  EXPECT_TRUE(chunk.borrowed());
  EXPECT_TRUE(chunk.empty());

  chunk.set_owned();
  EXPECT_FALSE(chunk.borrowed());
  EXPECT_EQ(chunk.size(), 3u);
}

TEST(ChunkBufferPool, RecyclesCapacity) {
  ingest::ChunkBufferPool pool(2);
  EXPECT_EQ(pool.pooled(), 0u);
  std::vector<char> a = pool.acquire();  // empty pool: fresh vector
  EXPECT_EQ(a.capacity(), 0u);
  EXPECT_EQ(pool.reuses(), 0u);

  a.resize(4096);
  const std::size_t cap = a.capacity();
  pool.release(std::move(a));
  EXPECT_EQ(pool.pooled(), 1u);

  std::vector<char> b = pool.acquire();
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_TRUE(b.empty());          // cleared...
  EXPECT_EQ(b.capacity(), cap);    // ...but capacity survives
  EXPECT_EQ(pool.pooled(), 0u);

  pool.release(std::vector<char>{});  // 0-capacity release is a no-op
  EXPECT_EQ(pool.pooled(), 0u);

  for (int i = 0; i < 4; ++i) {
    std::vector<char> v(128);
    pool.release(std::move(v));
  }
  EXPECT_EQ(pool.pooled(), 2u);  // bounded at max_buffers
}

TEST(ChunkBufferPool, CapIsConfigurableAndMissesAreCounted) {
  ingest::ChunkBufferPool pool(3);
  EXPECT_EQ(pool.max_buffers(), 3u);
  EXPECT_EQ(pool.misses(), 0u);

  std::vector<char> a = pool.acquire();  // cold freelist: a miss
  EXPECT_EQ(pool.misses(), 1u);
  a.resize(64);
  pool.release(std::move(a));
  std::vector<char> b = pool.acquire();  // warm: reuse, no new miss
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.reuses(), 1u);

  // Steady state: the miss delta across further acquire/release cycles must
  // be 0 — a non-zero delta means the cap is undersized for the workload.
  pool.release(std::move(b));
  const std::uint64_t steady = pool.misses();
  for (int i = 0; i < 8; ++i) {
    std::vector<char> v = pool.acquire();
    v.resize(64);
    pool.release(std::move(v));
  }
  EXPECT_EQ(pool.misses(), steady);
}

TEST(IngestPipeline, SharedBufferPoolIsUsedAndRecycles) {
  // A pipeline handed a shared pool must route every acquire/release
  // through it (this is how the JobManager shares warm buffers across
  // jobs) — the pool's counters, not a private pool's, must move.
  const std::string data = corpus(64 * 1024, 13);
  auto dev = std::make_shared<storage::MemDevice>(data, "mem");
  auto format = std::make_shared<ingest::LineFormat>();
  ingest::ChunkBufferPool shared(8);

  for (int run = 0; run < 2; ++run) {
    ingest::SingleDeviceSource src(dev, format, 8 * 1024);
    ingest::IngestPipeline pipeline(src, /*degrade=*/false, &shared);
    ASSERT_EQ(&pipeline.buffer_pool(), &shared);
    auto stats = pipeline.run([](ingest::IngestChunk&) {
      return Status::Ok();
    });
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  }
  // The second pipeline inherited the first one's warm buffers.
  EXPECT_GT(shared.reuses(), 0u);
  EXPECT_GT(shared.pooled(), 0u);
}

// ------------------------------------------------------------ MmapDevice

std::string write_temp(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return path;
}

TEST(MmapDevice, ViewsAgreeWithReads) {
  const std::string data = corpus(32 * 1024, 42);
  const std::string path = write_temp("supmr_mmap_dev.txt", data);
  auto dev = storage::MmapDevice::open(path);
  ASSERT_TRUE(dev.ok()) << dev.status().to_string();
  EXPECT_EQ((*dev)->size(), data.size());
  EXPECT_TRUE((*dev)->supports_views());

  auto view = (*dev)->view_at(1000, 5000);
  ASSERT_EQ(view.size(), 5000u);
  EXPECT_EQ(std::string(view.data(), view.size()), data.substr(1000, 5000));

  std::vector<char> buf(5000);
  auto n = (*dev)->read_at(1000, std::span<char>(buf.data(), buf.size()));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 5000u);
  EXPECT_EQ(std::string(buf.data(), *n), data.substr(1000, 5000));

  // Out-of-bounds views are refused, not clamped (a partial view would
  // silently truncate a chunk).
  EXPECT_TRUE((*dev)->view_at(data.size() - 10, 11).empty());
  EXPECT_TRUE((*dev)->view_at(data.size() + 1, 1).empty());

  // Reads clamp at EOF like every other device; past-EOF offsets error.
  auto tail = (*dev)->read_at(data.size() - 3,
                              std::span<char>(buf.data(), buf.size()));
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, 3u);
  EXPECT_FALSE((*dev)->read_at(data.size() + 1,
                               std::span<char>(buf.data(), 1))
                   .ok());
  std::remove(path.c_str());
}

TEST(MmapDevice, MissingFileFails) {
  EXPECT_FALSE(
      storage::MmapDevice::open("/nonexistent/supmr-no-such-file").ok());
}

// ----------------------------------------- io=mmap through the sources

TEST(SingleDeviceSource, MmapLendsBorrowedChunks) {
  const std::string data = corpus(64 * 1024, 7);
  auto dev = std::make_shared<storage::MemDevice>(data, "mem");
  auto format = std::make_shared<ingest::LineFormat>();

  ingest::SingleDeviceSource copy_src(dev, format, 8 * 1024,
                                      core::IoMode::kRead);
  ingest::SingleDeviceSource mmap_src(dev, format, 8 * 1024,
                                      core::IoMode::kMmap);
  auto plan = copy_src.plan();
  ASSERT_TRUE(plan.ok());
  ASSERT_GT(plan->size(), 2u);

  for (const auto& extent : *plan) {
    ingest::IngestChunk copied, borrowed;
    ASSERT_TRUE(copy_src.read_chunk(extent, copied).ok());
    ASSERT_TRUE(mmap_src.read_chunk(extent, borrowed).ok());
    EXPECT_FALSE(copied.borrowed());
    EXPECT_TRUE(borrowed.borrowed());
    // The borrowed span aliases the device's buffer — zero copies.
    EXPECT_EQ(borrowed.bytes().data(), dev->contents().data() + extent.offset);
    ASSERT_EQ(copied.size(), borrowed.size());
    EXPECT_TRUE(std::equal(copied.bytes().begin(), copied.bytes().end(),
                           borrowed.bytes().begin()));
  }
}

TEST(SingleDeviceSource, WrapperStacksForceCopyFallback) {
  const std::string data = corpus(32 * 1024, 8);
  std::shared_ptr<const storage::Device> dev =
      std::make_shared<storage::MemDevice>(data, "mem");
  // Throttle + retry: neither lends views, so io=mmap must silently use
  // copying reads (a page fault cannot be throttled or retried).
  auto limiter = std::make_shared<storage::RateLimiter>(1e12);
  dev = std::make_shared<storage::ThrottledDevice>(dev, limiter);
  fault::RetryPolicy policy;
  policy.max_attempts = 3;
  dev = std::make_shared<fault::RetryingDevice>(dev, policy);
  EXPECT_FALSE(dev->supports_views());

  auto format = std::make_shared<ingest::LineFormat>();
  ingest::SingleDeviceSource src(dev, format, 8 * 1024, core::IoMode::kMmap);
  auto plan = src.plan();
  ASSERT_TRUE(plan.ok());
  for (const auto& extent : *plan) {
    ingest::IngestChunk chunk;
    ASSERT_TRUE(src.read_chunk(extent, chunk).ok());
    EXPECT_FALSE(chunk.borrowed());
    EXPECT_EQ(std::string(chunk.bytes().data(), chunk.size()),
              data.substr(extent.offset, extent.length));
  }
}

TEST(MultiFileSource, MmapBorrowsOnlySingleFileChunks) {
  std::vector<std::shared_ptr<const storage::Device>> files;
  for (int i = 0; i < 4; ++i) {
    files.push_back(std::make_shared<storage::MemDevice>(
        std::string(4096, static_cast<char>('a' + i)),
        "f" + std::to_string(i)));
  }
  // files_per_chunk=1: every chunk is one whole file — borrowable.
  ingest::MultiFileSource one(files, 1, core::IoMode::kMmap);
  auto plan1 = one.plan();
  ASSERT_TRUE(plan1.ok());
  ASSERT_EQ(plan1->size(), 4u);
  for (const auto& extent : *plan1) {
    ingest::IngestChunk chunk;
    ASSERT_TRUE(one.read_chunk(extent, chunk).ok());
    EXPECT_TRUE(chunk.borrowed());
    EXPECT_EQ(chunk.size(), 4096u);
  }
  // files_per_chunk=2: coalesced chunks must be contiguous in RAM — copied.
  ingest::MultiFileSource two(files, 2, core::IoMode::kMmap);
  auto plan2 = two.plan();
  ASSERT_TRUE(plan2.ok());
  ASSERT_EQ(plan2->size(), 2u);
  for (const auto& extent : *plan2) {
    ingest::IngestChunk chunk;
    ASSERT_TRUE(two.read_chunk(extent, chunk).ok());
    EXPECT_FALSE(chunk.borrowed());
    ASSERT_EQ(chunk.size(), 2 * 4096u);
    // Coalesced bytes land in file order at their chunk offsets.
    EXPECT_EQ(chunk.bytes()[4095], chunk.bytes()[0]);
    EXPECT_EQ(chunk.bytes()[4096], chunk.bytes()[0] + 1);
  }
}

// Pipeline-level, over planned and controller-sized extents: the copying
// path recycles buffers (steady-state allocation drops to zero), the mmap
// path streams borrowed chunks.
TEST(IngestPipeline, PoolRecyclesOnCopyPathBorrowsOnMmapPath) {
  const std::string data = corpus(128 * 1024, 9);
  auto dev = std::make_shared<storage::MemDevice>(data, "mem");
  auto format = std::make_shared<ingest::LineFormat>();

  for (core::IoMode io : {core::IoMode::kRead, core::IoMode::kMmap}) {
    for (bool adaptive : {false, true}) {
      ingest::SingleDeviceSource src(dev, format, 8 * 1024, io);
      ingest::IngestPipeline pipeline(src);
      ingest::FixedChunkController controller(8 * 1024);
      std::size_t chunks = 0, borrowed = 0;
      std::uint64_t bytes = 0;
      const auto count = [&](ingest::IngestChunk& chunk) {
        ++chunks;
        if (chunk.borrowed()) ++borrowed;
        bytes += chunk.size();
        return Status::Ok();
      };
      auto stats = adaptive ? pipeline.run_adaptive(controller, count)
                            : pipeline.run(count);
      ASSERT_TRUE(stats.ok()) << stats.status().to_string();
      EXPECT_EQ(bytes, data.size());
      EXPECT_GT(chunks, 4u);
      if (io == core::IoMode::kRead) {
        EXPECT_EQ(borrowed, 0u);
        // At most two chunks are live, and the consumer returns a chunk's
        // buffer before the producer may read the next one, so only the
        // first two acquires can miss the freelist.
        EXPECT_GE(pipeline.buffer_pool().reuses(), chunks - 2);
      } else {
        EXPECT_EQ(borrowed, chunks);
      }
    }
  }
}

// End-to-end over a real mapped file: word count via MmapDevice must be
// byte-identical to the same job via FileDevice.
TEST(MmapIngest, RealFileDifferentialWordCount) {
  const std::string data = corpus(96 * 1024, 11);
  const std::string path = write_temp("supmr_mmap_diff.txt", data);

  auto run = [&](std::shared_ptr<const storage::Device> dev,
                 core::IoMode io) {
    apps::WordCountApp app;
    ingest::SingleDeviceSource src(std::move(dev),
                                   std::make_shared<ingest::LineFormat>(),
                                   16 * 1024, io);
    core::JobConfig cfg;
    cfg.num_map_threads = 3;
    cfg.num_reduce_threads = 3;
    cfg.io = io;
    core::MapReduceJob job(app, src, cfg);
    auto result = job.run(core::ExecMode::kIngestMR);
    EXPECT_TRUE(result.ok()) << result.status().to_string();
    return app.results();
  };

  auto file = storage::FileDevice::open(path);
  ASSERT_TRUE(file.ok()) << file.status().to_string();
  auto mapped = storage::MmapDevice::open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
  const auto via_read = run(std::move(*file), core::IoMode::kRead);
  const auto via_mmap = run(std::move(*mapped), core::IoMode::kMmap);
  EXPECT_EQ(via_read, via_mmap);
  EXPECT_FALSE(via_read.empty());
  std::remove(path.c_str());
}

// ------------------------------------ adjust_split boundary regressions

// A device that serves at most `cap` bytes per read_at call — legal under
// the Device contract, and exactly the shape that broke the old
// window-rescan loop.
class ShortReadDevice final : public storage::Device {
 public:
  ShortReadDevice(std::string data, std::size_t cap)
      : base_(std::move(data), "short-read"), cap_(cap) {}

  StatusOr<std::size_t> read_at(std::uint64_t offset,
                                std::span<char> out) const override {
    return base_.read_at(offset, out.subspan(0, std::min(out.size(), cap_)));
  }
  std::uint64_t size() const override { return base_.size(); }
  std::string_view name() const override { return base_.name(); }

 private:
  storage::MemDevice base_;
  std::size_t cap_;
};

TEST(AdjustSplit, ShortReadsDoNotFakeEof) {
  // '\n' at 600; desired split at 100. The old loop advanced by whatever
  // one read_at call returned and treated a tiny transfer as EOF, so a
  // capped device made it report "record runs to EOF" (= size) mid-file.
  std::string data(1000, 'a');
  data[600] = '\n';
  const ingest::LineFormat format;
  for (std::size_t cap : {std::size_t(1), std::size_t(2), std::size_t(3),
                          std::size_t(7), std::size_t(64)}) {
    ShortReadDevice dev(data, cap);
    auto end = format.adjust_split(dev, 100);
    ASSERT_TRUE(end.ok()) << "cap=" << cap;
    EXPECT_EQ(*end, 601u) << "cap=" << cap;
  }
}

TEST(AdjustSplit, ShortReadsMatchFullReadsEverywhere) {
  // Differential sweep: a capped device must produce the same split as the
  // plain device for every desired offset, both delimiter formats.
  const std::string text = corpus(4096, 12);
  std::string crlf;
  for (char c : text) {  // rewrite "\n" into "\r\n" for the CRLF variant
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const ingest::LineFormat line;
  const ingest::CrlfFormat crlf_format;
  struct Case {
    const ingest::RecordFormat* format;
    const std::string* data;
  };
  for (const Case& c : {Case{&line, &text}, Case{&crlf_format, &crlf}}) {
    storage::MemDevice full(*c.data, "full");
    ShortReadDevice capped(*c.data, 5);
    for (std::uint64_t desired = 0; desired <= c.data->size();
         desired += 61) {
      auto want = c.format->adjust_split(full, desired);
      auto got = c.format->adjust_split(capped, desired);
      ASSERT_TRUE(want.ok() && got.ok());
      EXPECT_EQ(*got, *want) << "desired=" << desired;
    }
  }
}

TEST(AdjustSplit, CrlfStraddlesScanWindowBoundary) {
  // kScanWindow is 64 KiB. Place "\r\n" so the '\r' is the LAST byte of the
  // first scan window and the '\n' opens the second — the lone trailing '\r'
  // must not match (find_crlf), and the one-byte inter-window overlap must
  // then see the pair whole.
  constexpr std::size_t kWindow = 64 * 1024;
  std::string data(kWindow + 512, 'x');
  data[kWindow - 1] = '\r';
  data[kWindow] = '\n';
  const ingest::CrlfFormat format;
  {
    storage::MemDevice dev(data, "straddle");
    // desired=1: too small for the boundary probe, scan starts at 0; the
    // first window ends exactly between '\r' and '\n'.
    auto end = format.adjust_split(dev, 1);
    ASSERT_TRUE(end.ok());
    EXPECT_EQ(*end, kWindow + 1);
  }
  {
    // Same layout through a short-read device: window filling must absorb
    // the capped reads before scanning.
    ShortReadDevice dev(data, 4096 - 1);  // odd cap, misaligned fills
    auto end = format.adjust_split(dev, 1);
    ASSERT_TRUE(end.ok());
    EXPECT_EQ(*end, kWindow + 1);
  }
}

TEST(AdjustSplit, CrlfAtExactScanWindowMultiples) {
  // "\r\n" ending exactly at 1x and 2x kScanWindow, with desired offsets on
  // and inside the terminator.
  constexpr std::size_t kWindow = 64 * 1024;
  std::string data(2 * kWindow + 256, 'y');
  data[kWindow - 2] = '\r';
  data[kWindow - 1] = '\n';  // record ends exactly at window 1's edge
  data[2 * kWindow - 2] = '\r';
  data[2 * kWindow - 1] = '\n';  // ...and at window 2's edge
  storage::MemDevice dev(data, "exact");
  const ingest::CrlfFormat format;

  auto a = format.adjust_split(dev, 10);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, kWindow);
  // A desired offset already on the boundary stays put (probe hit).
  auto b = format.adjust_split(dev, kWindow);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, kWindow);
  // A desired offset BETWEEN '\r' and '\n': the one-byte lookback re-reads
  // the pair and the split snaps to the end of that same terminator.
  auto c = format.adjust_split(dev, kWindow - 1);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, kWindow);
  // No terminator after the last record: runs to EOF.
  auto d = format.adjust_split(dev, 2 * kWindow + 1);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, data.size());
}

TEST(AdjustSplit, LineFormatWindowEdges) {
  constexpr std::size_t kWindow = 64 * 1024;
  std::string data(kWindow + 64, 'z');
  data[kWindow - 1] = '\n';  // terminator as the window's last byte
  storage::MemDevice dev(data, "line-edge");
  const ingest::LineFormat format;
  auto end = format.adjust_split(dev, 3);
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(*end, kWindow);
  // Trailing record without '\n' runs to EOF.
  auto tail = format.adjust_split(dev, kWindow + 1);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, data.size());
}

}  // namespace
}  // namespace supmr
