// String hashing for the intermediate containers.
//
// One hash for every string-keyed table. The key is folded a word at a time:
// 8-byte little-endian blocks from its first byte, the last one
// zero-extended, each step a bijection on the block (xor, odd multiply,
// xorshift). The length goes in last, then the mix64 avalanche finalizer
// mixes every bit. Buckets take the low bits and reduce partitions the high
// bits (hash_partition), so the keys of one partition still spread over
// every bucket of the table the reduce folds them into.
//
// The word tokenizer (apps/tokenize.hpp) runs the same hash_fold and
// hash_finish steps on the blocks it lowercases, and the containers' emit
// takes that value, so a word's bytes are walked once on the map side.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/scan.hpp"

namespace supmr::containers {

inline std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

inline constexpr std::uint64_t kHashSeed = 0x243f6a8885a308d3ULL;

inline std::uint64_t hash_fold(std::uint64_t h, std::uint64_t block) {
  h ^= block;
  h *= 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 32);
}

inline std::uint64_t hash_finish(std::uint64_t h, std::size_t len) {
  return mix64(h ^ len);
}

inline std::uint64_t hash_bytes(std::string_view s) {
  const std::size_t full = s.size() & ~std::size_t{7};
  std::uint64_t h = kHashSeed;
  for (std::size_t i = 0; i < full; i += 8)
    h = hash_fold(h, scan::load_u64(s.data() + i));
  if (full < s.size()) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, s.data() + full, s.size() - full);
    h = hash_fold(h, tail);
  }
  return hash_finish(h, s.size());
}

// Reduce partition of hash `h` among `parts`: the high bits of h, scaled
// (multiply-shift). Taking h % parts instead would give every key of a
// partition the same low bits, and with a power-of-two partition count those
// keys would share home buckets in the fold's table.
inline std::size_t hash_partition(std::uint64_t h, std::size_t parts) {
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(h) * parts) >> 64);
}

}  // namespace supmr::containers
