// SWAR delimiter scanning and byte classification shared by the ingest
// record formats (record_format.cpp) and the word tokenizer
// (apps/tokenize.hpp).
//
// The ingest hot path touches every input byte at least once; doing that a
// byte at a time through locale-aware <cctype> calls is the "memory
// bandwidth bottleneck" the paper tells us to kill. find_byte() scans eight
// bytes per iteration with the classic SWAR zero-in-word trick;
// word_lanes()/upper_lanes() classify all eight bytes of a loaded word at
// once, so the tokenizer finds, lowercases and hashes a word a block at a
// time; the classification tables are the byte-wise reference for the
// spans' last few bytes. Word-sized loads go through std::memcpy, so they
// are alignment- and strict-aliasing-safe (the compiler lowers them to
// single mov instructions). Lanes are little-endian: byte i of a loaded
// word is the byte at p + i.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>

namespace supmr::scan {

// Lane arithmetic below (and the hash's blocks, containers/hash.hpp) reads
// byte i of a loaded word as bits 8i..8i+7.
static_assert(std::endian::native == std::endian::little,
              "SWAR lanes assume a little-endian target");

inline constexpr std::uint64_t kLowBits = 0x0101010101010101ull;
inline constexpr std::uint64_t kHighBits = 0x8080808080808080ull;

inline std::uint64_t load_u64(const char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

namespace detail {

// Non-zero iff `w` has a zero byte; the high bit of each zero byte is set.
inline constexpr std::uint64_t zero_byte_mask(std::uint64_t w) {
  return (w - kLowBits) & ~w & kHighBits;
}

// High bit of each lane of `v` whose value is in [lo, hi]. Every lane of
// `v` must be 7-bit: adding at most 0x80 then cannot carry into the next
// lane, and the sum's high bit says whether the lane reached the bound.
inline constexpr std::uint64_t lanes_in(std::uint64_t v, unsigned lo,
                                        unsigned hi) {
  const std::uint64_t ge_lo = v + kLowBits * (0x80 - lo);
  const std::uint64_t gt_hi = v + kLowBits * (0x7f - hi);
  return ge_lo & ~gt_hi & kHighBits;
}

}  // namespace detail

// Index of the first occurrence of `needle` in `hay` at or after `from`,
// eight bytes per step. nullopt when absent. Behaves like memchr but
// returns an index, which is what the record formats want.
inline std::optional<std::size_t> find_byte(std::span<const char> hay,
                                            std::size_t from, char needle) {
  if (from >= hay.size()) return std::nullopt;
  const char* data = hay.data();
  const std::size_t n = hay.size();
  const std::uint64_t pattern =
      kLowBits * static_cast<std::uint8_t>(needle);
  std::size_t i = from;
  // SWAR bulk scan: XOR makes matching bytes zero, zero_byte_mask finds them.
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t m =
        detail::zero_byte_mask(load_u64(data + i) ^ pattern);
    if (m != 0) {
      // Little-endian: the lowest set high-bit belongs to the first match.
      return i + static_cast<std::size_t>(std::countr_zero(m)) / 8;
    }
  }
  for (; i < n; ++i) {
    if (data[i] == needle) return i;
  }
  return std::nullopt;
}

// Index of the '\r' of the first "\r\n" pair at or after `from` whose '\n'
// is also inside `hay`. A lone trailing '\r' at hay.back() does NOT match
// (its '\n' may be in the next window — callers keep a one-byte overlap).
inline std::optional<std::size_t> find_crlf(std::span<const char> hay,
                                            std::size_t from) {
  std::size_t pos = from;
  while (true) {
    const auto cr = find_byte(hay, pos, '\r');
    if (!cr.has_value() || *cr + 1 >= hay.size()) return std::nullopt;
    if (hay[*cr + 1] == '\n') return *cr;
    pos = *cr + 1;
  }
}

// Branch-free ASCII word-character classification ([0-9A-Za-z]) and
// lowercasing, one table load each — the byte-wise reference for the lane
// masks below, and the tokenizer's path over a span's last few bytes.
namespace detail {

struct ByteTables {
  bool word[256] = {};
  char lower[256] = {};
  constexpr ByteTables() {
    for (int c = 0; c < 256; ++c) {
      const bool digit = c >= '0' && c <= '9';
      const bool upper = c >= 'A' && c <= 'Z';
      const bool lower_c = c >= 'a' && c <= 'z';
      word[c] = digit || upper || lower_c;
      lower[c] = static_cast<char>(upper ? c - 'A' + 'a' : c);
    }
  }
};

inline constexpr ByteTables kTables{};

}  // namespace detail

inline bool is_word_byte(char c) {
  return detail::kTables.word[static_cast<std::uint8_t>(c)];
}

inline char to_lower_ascii(char c) {
  return detail::kTables.lower[static_cast<std::uint8_t>(c)];
}

// The same two classes for all eight lanes of a loaded word at once: the
// high bit of a lane is set where is_word_byte() holds (word_lanes) or where
// the byte is in [A-Z] (upper_lanes). `w | upper_lanes(w) >> 2` lowercases
// every lane (0x80 >> 2 is the case bit 0x20). Lanes >= 0x80 are in neither
// class, as in the tables: ~w clears them after the 7-bit range tests.
// Setting bit 0x20 folds [A-Z] onto [a-z] and maps no other byte into it.
inline constexpr std::uint64_t word_lanes(std::uint64_t w) {
  const std::uint64_t v = w & ~kHighBits;
  return (detail::lanes_in(v, '0', '9') |
          detail::lanes_in(v | kLowBits * 0x20, 'a', 'z')) &
         ~w;
}

inline constexpr std::uint64_t upper_lanes(std::uint64_t w) {
  return detail::lanes_in(w & ~kHighBits, 'A', 'Z') & ~w;
}

// Index of the first word byte at or after `from` (hay.size() when none),
// eight bytes per step.
inline std::size_t find_word_start(std::span<const char> hay,
                                   std::size_t from) {
  const char* data = hay.data();
  const std::size_t n = hay.size();
  std::size_t i = from;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t m = word_lanes(load_u64(data + i));
    if (m != 0) return i + static_cast<std::size_t>(std::countr_zero(m)) / 8;
  }
  for (; i < n; ++i) {
    if (is_word_byte(data[i])) return i;
  }
  return n;
}

}  // namespace supmr::scan
