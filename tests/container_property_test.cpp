// Differential and property tests for the hash container's emit-time fold
// (src/containers/hash_container.hpp, docs/containers.md).
//
// The claim under test: folding duplicate keys at emit time is semantically
// invisible. For a Zipf emit stream, reduce_partition's output must equal a
// sort-fold reference built with plain std::map, across partition counts and
// for keys both inside the slot and in the arena; the fold accounting must
// count exact bytes; and SchedFuzz-perturbed concurrent fills must equal a
// serial replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "containers/combiners.hpp"
#include "containers/hash_container.hpp"
#include "tests/stress/sched_fuzz.hpp"
#include "tests/testdata.hpp"

namespace supmr::containers {
namespace {

using Counts = HashContainer<SumCombiner<std::uint64_t>>;

// One recorded emit: (stripe, key index into a pool, value).
struct Emit {
  std::size_t thread_id;
  std::size_t key;
  std::uint64_t value;
};

// Zipf-weighted emit stream over `pool`, spread round-robin across stripes.
std::vector<Emit> zipf_emits(std::size_t n, std::size_t distinct,
                             std::size_t num_threads, std::uint64_t seed) {
  const auto stream = testdata::zipf_stream(n, distinct, seed);
  Xoshiro256 rng(seed ^ 0x5eedULL);
  std::vector<Emit> emits;
  emits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    emits.push_back({i % num_threads, stream[i], rng.uniform(1000)});
  }
  return emits;
}

// Sorted (key, value) pairs via partitioned reduce — the shape merge sees.
std::vector<std::pair<std::string, std::uint64_t>> drain(const Counts& c,
                                                         std::size_t parts) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (std::size_t p = 0; p < parts; ++p) {
    auto part = c.reduce_partition(p, parts);
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(CombiningDifferential, ZipfCorporaMatchHashAndReference) {
  for (std::size_t distinct : {std::size_t(1), std::size_t(7),
                               std::size_t(200), std::size_t(3000)}) {
    // Every other key is lengthened past the slot's 12 inline bytes.
    auto pool = testdata::key_pool(distinct);
    for (std::size_t i = 1; i < pool.size(); i += 2)
      pool[i] += "-in-the-arena";
    const auto emits = zipf_emits(20000, distinct, 3, 42 + distinct);
    Counts c;
    c.init(3);
    std::map<std::string, std::uint64_t> reference;
    for (const Emit& e : emits) {
      c.emit(e.thread_id, pool[e.key], e.value);
      reference[pool[e.key]] += e.value;
    }
    const std::vector<std::pair<std::string, std::uint64_t>> expected(
        reference.begin(), reference.end());
    for (std::size_t parts : {1, 3, 8}) {
      EXPECT_EQ(drain(c, parts), expected)
          << "distinct=" << distinct << ", parts=" << parts;
    }
  }
}

TEST(CombiningLifecycle, StatsAccountExactBytes) {
  Counts c;
  c.init(1);
  for (int i = 0; i < 3; ++i) c.emit(0, "abc", std::uint64_t{1});
  for (int i = 0; i < 2; ++i)
    c.emit(0, "a-key-of-17-bytes", std::uint64_t{1});
  const core::CombineStats s = c.stats();
  EXPECT_EQ(s.emits, 5u);
  EXPECT_EQ(s.keys_folded, 3u);
  // Every emit: key bytes + 8-byte value; survivors: one record per key.
  EXPECT_EQ(s.bytes_emitted, 3 * (3 + 8) + 2 * (17 + 8));
  EXPECT_EQ(s.bytes_into_merge, (3 + 8) + (17 + 8));
  EXPECT_EQ(s.table_bytes, c.memory_bytes());
  EXPECT_GT(s.table_bytes, 0u);
  c.reset();
  c.init(1);
  EXPECT_EQ(c.stats().emits, 0u);  // reset drops the counters with the table
}

// Each map thread owns its stripe, so concurrent fills with distinct
// thread_ids must be race-free and deterministic: the fuzzed concurrent
// result must equal a serial replay of the same per-thread streams. Replay a
// failing schedule with SUPMR_SCHED_SEED=<seed>.
TEST(CombiningConcurrency, SchedFuzzedFillMatchesSerialReplay) {
  const std::size_t kThreads = 4;
  const std::size_t kEmitsPerThread = 12000;
  const auto pool = testdata::key_pool(300);
  for (std::uint64_t seed : test::kStressSeeds) {
    test::SchedFuzz fuzz(seed);
    Counts concurrent;
    concurrent.init(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t tid = 0; tid < kThreads; ++tid) {
      threads.emplace_back([&, tid] {
        test::SchedFuzz::Stream stream(fuzz, tid);
        Xoshiro256 rng(fuzz.seed() * 31 + tid);
        for (std::size_t i = 0; i < kEmitsPerThread; ++i) {
          concurrent.emit(tid, pool[rng.uniform(pool.size())],
                          rng.uniform(50));
          if ((i & 255) == 0) stream.yield_point();
        }
      });
    }
    for (auto& t : threads) t.join();

    Counts serial;
    serial.init(kThreads);
    for (std::size_t tid = 0; tid < kThreads; ++tid) {
      Xoshiro256 rng(fuzz.seed() * 31 + tid);
      for (std::size_t i = 0; i < kEmitsPerThread; ++i) {
        serial.emit(tid, pool[rng.uniform(pool.size())], rng.uniform(50));
      }
    }
    EXPECT_EQ(drain(concurrent, 5), drain(serial, 5))
        << "seed=" << fuzz.seed();
    EXPECT_EQ(concurrent.stats().emits, kThreads * kEmitsPerThread)
        << "seed=" << fuzz.seed();
    EXPECT_GT(concurrent.stats().keys_folded, 0u) << "fold was vacuous";
  }
}

}  // namespace
}  // namespace supmr::containers
