// Shared synthetic dataset generators for tests and benches.
//
// Every generator is seeded and deterministic (Xoshiro256 from common/rng —
// no std::random device, no time): the differential merge suite
// (tests/merge_differential_test.cpp), the splitter property suite, and the
// micro benches (bench/micro_merge.cpp) all draw byte-identical inputs from
// here, so a bench regression can be replayed as a unit test with the same
// data and vice versa.
#pragma once

#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace supmr::testdata {

inline std::vector<std::uint64_t> random_u64(std::size_t n,
                                             std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng();
  return v;
}

inline std::vector<int> random_ints(std::size_t n, std::uint64_t seed,
                                    std::uint64_t range = 1000000) {
  Xoshiro256 rng(seed);
  std::vector<int> v(n);
  for (auto& x : v) x = static_cast<int>(rng.uniform(range));
  return v;
}

inline std::vector<int> all_equal(std::size_t n, int value = 7) {
  return std::vector<int>(n, value);
}

inline std::vector<int> presorted(std::size_t n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

inline std::vector<int> reverse_sorted(std::size_t n) {
  std::vector<int> v(n);
  std::iota(v.rbegin(), v.rend(), 0);
  return v;
}

// Very few distinct values: stresses equal-key handling in splitters,
// partition boundaries, and comparator tie paths.
inline std::vector<int> duplicate_heavy(std::size_t n, std::uint64_t seed,
                                        std::uint64_t distinct = 4) {
  return random_ints(n, seed, distinct);
}

// Ascends then descends: adversarial for naive quicksort pivot choices.
inline std::vector<int> organ_pipe(std::size_t n) {
  std::vector<int> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n / 2; ++i) v.push_back(static_cast<int>(i));
  for (std::size_t i = n - n / 2; i > 0; --i)
    v.push_back(static_cast<int>(i));
  return v;
}

// Zipf-weighted key stream, the word-count-like container workload: a pool
// of `distinct` short string keys and `n` draws from a Zipf(s) sampler over
// it — mostly combines on hot keys, few inserts. Returned as indices into
// the key pool so callers keep pointer stability over their own key vector.
inline std::vector<std::string> key_pool(std::size_t distinct) {
  std::vector<std::string> keys;
  keys.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i)
    keys.push_back("w" + std::to_string(i));
  return keys;
}

inline std::vector<std::size_t> zipf_stream(std::size_t n,
                                            std::size_t distinct,
                                            std::uint64_t seed,
                                            double s = 1.0) {
  Xoshiro256 rng(seed);
  ZipfSampler zipf(s, distinct);
  std::vector<std::size_t> stream(n);
  for (auto& i : stream) i = zipf(rng);
  return stream;
}

// The adversarial int corpus the differential suite runs every merge
// backend against. Sizes deliberately include 0/1/2-element inputs and
// non-powers of two; contents cover the comparator tie and ordering edge
// cases. Deterministic in `seed`.
struct NamedInts {
  std::string name;
  std::vector<int> data;
};

inline std::vector<NamedInts> adversarial_int_datasets(std::uint64_t seed) {
  std::vector<NamedInts> sets;
  sets.push_back({"empty", {}});
  sets.push_back({"single", {42}});
  sets.push_back({"two_sorted", {1, 2}});
  sets.push_back({"two_reversed", {2, 1}});
  sets.push_back({"all_equal", all_equal(5000)});
  sets.push_back({"presorted", presorted(4096)});
  sets.push_back({"reverse_sorted", reverse_sorted(4095)});
  sets.push_back({"duplicate_heavy", duplicate_heavy(20000, seed)});
  sets.push_back({"organ_pipe", organ_pipe(10000)});
  sets.push_back({"random_small", random_ints(23, seed + 1)});
  sets.push_back({"random_large", random_ints(100000, seed + 2)});
  return sets;
}

}  // namespace supmr::testdata
