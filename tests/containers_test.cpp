// Unit + property tests for the intermediate containers: arena hash map,
// combiners, hash container striping/partitioning/persistence, array
// container.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <thread>

#include "common/rng.hpp"
#include <stdexcept>

#include "containers/array_container.hpp"
#include "containers/combiners.hpp"
#include "containers/fixed_kv_array.hpp"
#include "containers/hash_container.hpp"
#include "wload/text_corpus.hpp"

namespace supmr::containers {
namespace {

// ---------------------------------------------------------- ArenaHashMap

TEST(ArenaHashMap, InsertAndFind) {
  ArenaHashMap<int> m;
  m.find_or_insert("alpha", 0) = 1;
  m.find_or_insert("beta", 0) = 2;
  EXPECT_EQ(*m.find("alpha"), 1);
  EXPECT_EQ(*m.find("beta"), 2);
  EXPECT_EQ(m.find("gamma"), nullptr);
  EXPECT_EQ(m.size(), 2u);
}

TEST(ArenaHashMap, FindOrInsertReturnsExisting) {
  ArenaHashMap<int> m;
  m.find_or_insert("k", 10);
  int& v = m.find_or_insert("k", 99);
  EXPECT_EQ(v, 10);
  EXPECT_EQ(m.size(), 1u);
}

TEST(ArenaHashMap, KeysOwnedByArena) {
  ArenaHashMap<int> m;
  {
    // Key built in a transient buffer that is promptly destroyed.
    std::string transient = "ephemeral-key";
    m.find_or_insert(transient, 7);
    transient.assign(transient.size(), '#');
  }
  EXPECT_EQ(*m.find("ephemeral-key"), 7);
}

TEST(ArenaHashMap, GrowthPreservesEntries) {
  ArenaHashMap<std::uint64_t> m(4);
  for (int i = 0; i < 5000; ++i)
    m.find_or_insert("key-" + std::to_string(i), i);
  EXPECT_EQ(m.size(), 5000u);
  for (int i = 0; i < 5000; i += 37)
    EXPECT_EQ(*m.find("key-" + std::to_string(i)),
              static_cast<std::uint64_t>(i));
}

TEST(ArenaHashMap, ForEachVisitsAllOnce) {
  ArenaHashMap<int> m;
  for (int i = 0; i < 100; ++i)
    m.find_or_insert("k" + std::to_string(i), i);
  std::set<std::string> seen;
  m.for_each([&](std::string_view k, const int&) {
    EXPECT_TRUE(seen.insert(std::string(k)).second);
  });
  EXPECT_EQ(seen.size(), 100u);
}

TEST(ArenaHashMap, PartitionsAreDisjointAndComplete) {
  ArenaHashMap<int> m;
  for (int i = 0; i < 1000; ++i)
    m.find_or_insert("key" + std::to_string(i), i);
  constexpr std::size_t kParts = 7;
  std::set<std::string> seen;
  for (std::size_t p = 0; p < kParts; ++p) {
    m.for_each_in_partition(
        p, kParts, [&](std::string_view k, std::uint64_t h, const int&) {
          EXPECT_EQ(h, hash_bytes(k));
          EXPECT_TRUE(seen.insert(std::string(k)).second)
              << "key in two partitions: " << k;
        });
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(ArenaHashMap, PartitionAssignmentStableAcrossGrowth) {
  // The same key must land in the same partition before and after rehash.
  ArenaHashMap<int> small(4);
  small.find_or_insert("stable-key", 1);
  std::size_t part_before = ~0ull;
  for (std::size_t p = 0; p < 5; ++p) {
    small.for_each_in_partition(
        p, 5, [&](std::string_view, std::uint64_t, const int&) {
          part_before = p;
        });
  }
  for (int i = 0; i < 10000; ++i)
    small.find_or_insert("filler" + std::to_string(i), i);
  bool found = false;
  small.for_each_in_partition(
      part_before, 5, [&](std::string_view k, std::uint64_t, const int&) {
        if (k == "stable-key") found = true;
      });
  EXPECT_TRUE(found);
}

TEST(ArenaHashMap, EmptyKeySupported) {
  ArenaHashMap<int> m;
  m.find_or_insert("", 5);
  EXPECT_EQ(*m.find(""), 5);
}

TEST(ArenaHashMap, ShortKeysStayInline) {
  // Keys of up to 12 bytes live in their slots; only longer keys take arena
  // bytes, once each.
  ArenaHashMap<std::uint64_t> m;
  for (std::size_t len = 0; len <= 12; ++len) {
    for (char c : {'a', 'b', 'c'}) m.find_or_insert(std::string(len, c), len);
  }
  EXPECT_EQ(m.arena_bytes(), 0u);
  m.find_or_insert(std::string(13, 'a'), 13);
  m.find_or_insert(std::string(13, 'a'), 0);
  EXPECT_EQ(m.arena_bytes(), 13u);
  EXPECT_EQ(*m.find(std::string(12, 'a')), 12u);
  EXPECT_EQ(*m.find(std::string(13, 'a')), 13u);
}

TEST(ArenaHashMap, ClearResets) {
  ArenaHashMap<int> m;
  m.find_or_insert("x", 1);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find("x"), nullptr);
}

// Property: the map agrees with std::map over random operation sequences.
class ArenaMapProperty : public ::testing::TestWithParam<int> {};

// Two key pools: short decimal keys, and keys at the slot's inline edge (11,
// 12, 13 bytes), the empty key, keys far past it (64) and keys with an
// embedded '\0'. Keys of one length share all but their last bytes, so a
// compare must read the whole key; the map starts small so it grows often.
std::vector<std::vector<std::string>> arena_map_key_pools() {
  std::vector<std::string> decimal, boundary = {""};
  for (std::size_t i = 0; i < 500; ++i)
    decimal.push_back("k" + std::to_string(i));
  for (std::size_t len : {11, 12, 13, 64}) {
    for (std::size_t i = 0; i < 300; ++i) {
      std::string key(len, 'k');
      const std::string id = std::to_string(i);
      key.replace(len - id.size(), id.size(), id);
      boundary.push_back(key);
    }
  }
  for (std::size_t i = 0; i < 100; ++i) {
    boundary.push_back(std::string("nul\0", 4) + std::to_string(i));
    boundary.push_back(std::string(12, '\0') + std::to_string(i));
  }
  return {decimal, boundary};
}

TEST_P(ArenaMapProperty, MatchesReferenceMap) {
  for (const std::vector<std::string>& pool : arena_map_key_pools()) {
    Xoshiro256 rng(GetParam());
    ArenaHashMap<std::uint64_t> m(4);
    std::map<std::string, std::uint64_t> ref;
    for (int op = 0; op < 20000; ++op) {
      const std::string& key = pool[rng.uniform(pool.size())];
      const std::uint64_t add = rng.uniform(100);
      m.find_or_insert(key, 0) += add;
      ref[key] += add;
    }
    EXPECT_EQ(m.size(), ref.size());
    std::size_t long_key_bytes = 0;
    for (const auto& [key, value] : ref) {
      const std::uint64_t* found = m.find(key);
      ASSERT_NE(found, nullptr) << key.size() << "-byte key";
      EXPECT_EQ(*found, value);
      if (key.size() > 12) long_key_bytes += key.size();
    }
    EXPECT_EQ(m.arena_bytes(), long_key_bytes);
    std::size_t visited = 0;
    m.for_each([&](std::string_view k, const std::uint64_t& v) {
      ++visited;
      const auto it = ref.find(std::string(k));
      ASSERT_NE(it, ref.end());
      EXPECT_EQ(v, it->second);
    });
    EXPECT_EQ(visited, ref.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaMapProperty,
                         ::testing::Values(11, 22, 33, 44));

// ------------------------------------------------------------- hash_bytes

// The key shapes the string-keyed apps produce: word-count vocabularies,
// pair keys "w1 w2", decimal keys and doc-term keys "<file_id>\t<word>".
std::vector<std::pair<std::string, std::vector<std::string>>> app_key_sets() {
  const auto vocabulary = [](std::size_t n) {
    std::vector<std::string> words;
    for (std::size_t i = 0; i < n; ++i)
      words.push_back(wload::make_word(i, 3, 10));
    return words;
  };
  const std::vector<std::string> words = vocabulary(10000);
  std::vector<std::string> pairs, decimals, doc_terms;
  for (std::size_t i = 0; i < 120000; ++i) {
    // i = a + 10000q pairs word a with word (997q + 31a) % 10000: distinct.
    const std::size_t a = i % 10000, q = i / 10000;
    pairs.push_back(words[a] + ' ' + words[(997 * q + 31 * a) % 10000]);
  }
  for (std::size_t i = 0; i < 100000; ++i) {
    decimals.push_back(std::to_string(i));
    doc_terms.push_back(std::to_string(i % 100) + '\t' + words[i / 100]);
  }
  return {{"vocabulary 10k", words},
          {"vocabulary 150k", vocabulary(150000)},
          {"pairs 120k", pairs},
          {"decimals 100k", decimals},
          {"doc-terms 100k", doc_terms}};
}

// Mean probe length of a successful search once `hashes` are inserted into
// a linear-probing table of `cap` slots (a power of two) indexed by their
// low bits, as ArenaHashMap places them.
double mean_probe_length(const std::vector<std::uint64_t>& hashes,
                         std::size_t cap) {
  std::vector<bool> used(cap, false);
  std::size_t probes = 0;
  for (const std::uint64_t h : hashes) {
    std::size_t idx = h & (cap - 1);
    for (++probes; used[idx]; ++probes) idx = (idx + 1) & (cap - 1);
    used[idx] = true;
  }
  return static_cast<double>(probes) / static_cast<double>(hashes.size());
}

// Within 1.25x of Knuth's 1/2 (1 + 1/(1 - a)) for a uniform hash at the
// table's load a.
double probe_length_bound(std::size_t keys, std::size_t cap) {
  const double load = static_cast<double>(keys) / static_cast<double>(cap);
  return 1.25 * 0.5 * (1 + 1 / (1 - load));
}

// The hash only picks buckets and reduce partitions, so what it must keep is
// evenness, on the key shapes the string-keyed apps produce.
TEST(HashBytes, PartitionsAndProbesStayEven) {
  for (const auto& [name, keys] : app_key_sets()) {
    ASSERT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(),
              keys.size())
        << name;
    std::vector<std::uint64_t> hashes;
    for (const std::string& k : keys) hashes.push_back(hash_bytes(k));
    const double n = static_cast<double>(keys.size());
    for (std::size_t parts : {16u, 7u}) {
      std::vector<std::size_t> count(parts, 0);
      for (const std::uint64_t h : hashes) ++count[hash_partition(h, parts)];
      const double mean = n / static_cast<double>(parts);
      const double tol = keys.size() >= 100000 ? 0.05 : 0.15;
      for (std::size_t p = 0; p < parts; ++p) {
        EXPECT_NEAR(static_cast<double>(count[p]), mean, tol * mean)
            << name << ", partition " << p << " of " << parts;
      }
    }
    // Linear probing at the load ArenaHashMap would run at (at most 70%).
    std::size_t cap = 16;
    while (keys.size() * 10 > cap * 7) cap <<= 1;
    EXPECT_LE(mean_probe_length(hashes, cap),
              probe_length_bound(keys.size(), cap))
        << name << " at " << keys.size() << " keys in " << cap << " slots";
  }
}

// ------------------------------------------------------------- combiners

TEST(Combiners, Sum) {
  std::uint64_t acc = SumCombiner<std::uint64_t>::identity();
  SumCombiner<std::uint64_t>::combine(acc, 3);
  SumCombiner<std::uint64_t>::combine(acc, 4);
  std::uint64_t other = 10;
  SumCombiner<std::uint64_t>::merge(acc, other);
  EXPECT_EQ(acc, 17u);
}

TEST(Combiners, MinMax) {
  int lo = MinCombiner<int>::identity();
  MinCombiner<int>::combine(lo, 5);
  MinCombiner<int>::combine(lo, -2);
  EXPECT_EQ(lo, -2);
  int hi = MaxCombiner<int>::identity();
  MaxCombiner<int>::combine(hi, 5);
  MaxCombiner<int>::combine(hi, -2);
  EXPECT_EQ(hi, 5);
}

TEST(Combiners, AppendKeepsEverything) {
  auto acc = AppendCombiner<int>::identity();
  AppendCombiner<int>::combine(acc, 1);
  AppendCombiner<int>::combine(acc, 2);
  std::vector<int> other{3, 4};
  AppendCombiner<int>::merge(acc, std::move(other));
  EXPECT_EQ(acc, (std::vector<int>{1, 2, 3, 4}));
}

// --------------------------------------------------------- HashContainer

using WordCounts = HashContainer<SumCombiner<std::uint64_t>>;

TEST(HashContainer, EmitAndReducePartition) {
  WordCounts c;
  c.init(2);
  c.emit(0, "apple", 1);
  c.emit(0, "apple", 1);
  c.emit(1, "apple", 1);  // same key, different stripe
  c.emit(1, "pear", 1);
  std::map<std::string, std::uint64_t> merged;
  for (std::size_t p = 0; p < 4; ++p) {
    for (auto& [k, v] : c.reduce_partition(p, 4)) merged[k] += v;
  }
  EXPECT_EQ(merged["apple"], 3u);
  EXPECT_EQ(merged["pear"], 1u);
  EXPECT_EQ(merged.size(), 2u);
}

// reduce_partition folds one partition's keys into a fresh
// ArenaHashMap(256), whose buckets are the hash's low bits. So the
// partition must not be chosen by those bits: with `hash % 16`, every key
// of a partition shares its low 4 bits and only one slot in 16 is a home
// bucket. Each partition of every app key set, placed in a table of the
// size the fold grows to, must probe like a uniform hash.
TEST(HashContainer, ReduceFoldProbesStayShort) {
  constexpr std::size_t kParts = 16;  // reduce_partitions() at 4 threads
  for (const auto& [name, keys] : app_key_sets()) {
    ArenaHashMap<int> stripe(keys.size());
    for (const std::string& k : keys) stripe.find_or_insert(k, 0);
    for (std::size_t p = 0; p < kParts; ++p) {
      std::vector<std::uint64_t> hashes;
      stripe.for_each_in_partition(
          p, kParts, [&](std::string_view, std::uint64_t h, const int&) {
            hashes.push_back(h);
          });
      // ArenaHashMap(256) starts at 512 slots and doubles before an insert
      // would reach 70% load.
      std::size_t cap = 512;
      while (hashes.size() * 10 >= cap * 7) cap <<= 1;
      EXPECT_LE(mean_probe_length(hashes, cap),
                probe_length_bound(hashes.size(), cap))
          << name << ", partition " << p << ": " << hashes.size()
          << " keys in " << cap << " slots";
    }
  }
}

TEST(HashContainer, InitIsIdempotent) {
  // The persistent container: re-initializing across rounds keeps pairs
  // (paper §III.C).
  WordCounts c;
  c.init(2);
  c.emit(0, "w", 1);
  c.init(2);  // second round's run_mappers
  c.emit(1, "w", 1);
  auto pairs = c.reduce_partition(0, 1);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].second, 2u);
}

TEST(HashContainer, ThreadCountChangeAcrossRoundsThrows) {
  // Regression: a thread-count mismatch on re-init used to be a bare
  // assert — compiled out under NDEBUG, so emit() would silently index past
  // the stripe vector. It is a hard runtime error now, whatever the build.
  WordCounts c;
  c.init(2);
  c.emit(0, "w", 1);
  EXPECT_THROW(c.init(3), std::logic_error);
  c.reset();
  c.init(3);  // after reset a new geometry is legal
  c.emit(2, "w", 1);
  auto pairs = c.reduce_partition(0, 1);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].second, 1u);
}

TEST(ArrayContainer, GeometryChangeAcrossRoundsThrows) {
  ArrayContainer c;
  c.init(4);
  c.claim(1);
  EXPECT_THROW(c.init(8), std::logic_error);
  c.reset();
  c.init(8);  // reset unlocks a new record size
}

TEST(FixedKvArray, GeometryChangeAcrossRoundsThrows) {
  FixedKvArray<SumCombiner<std::uint64_t>> c;
  c.init(2, 16);
  EXPECT_THROW(c.init(3, 16), std::logic_error);  // thread count changed
  EXPECT_THROW(c.init(2, 32), std::logic_error);  // key count changed
  c.reset();
  c.init(3, 32);
}

TEST(HashContainer, ResetLosesPriorRounds) {
  // What the ORIGINAL runtime's per-round container init would do — this is
  // the failure mode persistence prevents.
  WordCounts c;
  c.init(1);
  c.emit(0, "w", 1);
  c.reset();
  c.init(1);
  c.emit(0, "w", 1);
  auto pairs = c.reduce_partition(0, 1);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].second, 1u);  // the first round's pair was lost
}

TEST(HashContainer, ConcurrentStripeEmission) {
  constexpr std::size_t kThreads = 4;
  constexpr int kPerThread = 50000;
  WordCounts c;
  c.init(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        c.emit(t, "key" + std::to_string(i % 100), 1);
    });
  }
  for (auto& w : workers) w.join();
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < 8; ++p) {
    for (auto& [k, v] : c.reduce_partition(p, 8)) total += v;
  }
  EXPECT_EQ(total, kThreads * kPerThread);
}

TEST(HashContainer, PartitionsDisjointAcrossStripes) {
  WordCounts c;
  c.init(3);
  for (int i = 0; i < 300; ++i) c.emit(i % 3, "k" + std::to_string(i), 1);
  std::set<std::string> seen;
  for (std::size_t p = 0; p < 5; ++p) {
    for (auto& [k, v] : c.reduce_partition(p, 5)) {
      EXPECT_TRUE(seen.insert(k).second) << k;
    }
  }
  EXPECT_EQ(seen.size(), 300u);
}

TEST(HashContainer, AppendCombinerVariant) {
  HashContainer<AppendCombiner<std::uint32_t>> c;
  c.init(2);
  c.emit(0, "doc", 1u);
  c.emit(1, "doc", 2u);
  auto pairs = c.reduce_partition(0, 1);
  ASSERT_EQ(pairs.size(), 1u);
  std::vector<std::uint32_t> files = pairs[0].second;
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::uint32_t>{1, 2}));
}

// -------------------------------------------------------- ArrayContainer

// Writes one record into a claimed slot, as a mapper does.
void write_slot(ArrayContainer& c, std::uint64_t slot, const char* record) {
  std::memcpy(c.mutable_record(slot), record, c.record_bytes());
}

// The claimed records in slot order, read back through segments().
std::string all_records(const ArrayContainer& c) {
  std::string all;
  for (const std::span<const char> s : c.segments())
    all.append(s.data(), s.size());
  return all;
}

// Record `slot` of the claimed records, read back through segments().
std::string record_at(const ArrayContainer& c, std::uint64_t slot) {
  return all_records(c).substr(slot * c.record_bytes(), c.record_bytes());
}

TEST(ArrayContainer, ClaimAndWrite) {
  ArrayContainer c;
  c.init(4);
  const std::uint64_t base = c.claim(3);
  EXPECT_EQ(base, 0u);
  write_slot(c, 0, "aaaa");
  write_slot(c, 1, "bbbb");
  write_slot(c, 2, "cccc");
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(record_at(c, 1), "bbbb");
}

TEST(ArrayContainer, ClaimsAreContiguousAcrossRounds) {
  ArrayContainer c;
  c.init(2);
  EXPECT_EQ(c.claim(5), 0u);
  EXPECT_EQ(c.claim(3), 5u);
  EXPECT_EQ(c.size(), 8u);
}

TEST(ArrayContainer, InitIdempotentPersistence) {
  ArrayContainer c;
  c.init(4);
  c.claim(2);
  write_slot(c, 0, "r0r0");
  write_slot(c, 1, "r1r1");
  c.init(4);  // next round
  write_slot(c, c.claim(1), "r2r2");
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(record_at(c, 0), "r0r0");  // survived
}

TEST(ArrayContainer, NewSegmentKeepsEarlierRecords) {
  ArrayContainer c;
  c.init(4);
  EXPECT_EQ(c.claim(2), 0u);  // segment 0 holds exactly two slots
  write_slot(c, 0, "r0r0");
  write_slot(c, 1, "r1r1");
  EXPECT_EQ(c.claim(3), 2u);  // does not fit: opens segment 1
  ASSERT_EQ(c.segments().size(), 2u);
  write_slot(c, 2, "r2r2");
  write_slot(c, 3, "r3r3");
  write_slot(c, 4, "r4r4");
  // Both sides of the segment boundary, and the records written before the
  // new segment opened.
  EXPECT_EQ(record_at(c, 0), "r0r0");
  EXPECT_EQ(record_at(c, 1), "r1r1");
  EXPECT_EQ(record_at(c, 2), "r2r2");
  EXPECT_EQ(record_at(c, 4), "r4r4");
  // Segment 1 doubled to four slots, so one more claim fits in its tail.
  EXPECT_EQ(c.claim(1), 5u);
  write_slot(c, 5, "r5r5");
  EXPECT_EQ(c.segments().size(), 2u);
  EXPECT_EQ(all_records(c), "r0r0r1r1r2r2r3r3r4r4r5r5");
}

TEST(ArrayContainer, ClaimedSlotsAreContiguous) {
  ArrayContainer c;
  c.init(4);
  c.claim(1);
  const std::uint64_t base = c.claim(3);  // opens a segment of its own
  for (std::uint64_t i = 0; i < 3; ++i)
    EXPECT_EQ(c.mutable_record(base + i), c.mutable_record(base) + i * 4);
}

TEST(ArrayContainer, ClaimZeroClaimsNothing) {
  ArrayContainer c;
  c.init(4);
  EXPECT_EQ(c.claim(0), 0u);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_TRUE(c.segments().empty());
  c.claim(2);
  EXPECT_EQ(c.claim(0), 2u);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.segments().size(), 1u);
}

TEST(ArrayContainer, ConcurrentDisjointWrites) {
  constexpr std::uint64_t kRecords = 10000;
  ArrayContainer c;
  c.init(8);
  c.claim(kRecords);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      char rec[8];
      for (std::uint64_t r = t; r < kRecords; r += 4) {
        std::snprintf(rec, sizeof(rec), "%07llu",
                      static_cast<unsigned long long>(r));
        write_slot(c, r, rec);
      }
    });
  }
  for (auto& w : workers) w.join();
  const std::string all = all_records(c);
  char expect[8];
  for (std::uint64_t r = 0; r < kRecords; r += 997) {
    std::snprintf(expect, sizeof(expect), "%07llu",
                  static_cast<unsigned long long>(r));
    EXPECT_EQ(std::memcmp(all.data() + r * 8, expect, 8), 0);
  }
}

TEST(ArrayContainer, ResetClears) {
  ArrayContainer c;
  c.init(4);
  c.claim(10);
  c.reset();
  EXPECT_FALSE(c.initialized());
  c.init(8);  // may re-init with a different width after reset
  EXPECT_EQ(c.record_bytes(), 8u);
  EXPECT_EQ(c.size(), 0u);
}

}  // namespace
}  // namespace supmr::containers
