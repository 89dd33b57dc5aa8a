// Word tokenizer shared by the text applications (word count, pair count,
// doc-term count, inverted index).
//
// A word is a maximal run of ASCII letters/digits, lowercased. The
// tokenizer touches every input byte, so it sits squarely on the ingest
// bandwidth path the paper is about, and it walks each word once: per
// 8-byte block, scan::word_lanes finds where the word ends,
// scan::upper_lanes lowercases it, and the block is stored to a small stack
// buffer and folded into the word's containers::hash_bytes value, which the
// callback receives so the table never hashes the word again. Delimiter
// runs are skipped eight bytes at a time (scan::find_word_start). Two cases
// go a byte at a time through the classification tables: the span's last 7
// bytes (no load reads past the span) and words that reach kMaxWord, which
// are truncated there (they still count, under their truncated spelling).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

#include "common/scan.hpp"
#include "containers/hash.hpp"

namespace supmr::apps {

inline constexpr std::size_t kMaxWord = 255;

inline bool is_word_char(char c) { return scan::is_word_byte(c); }

// fn(std::string_view word, std::uint64_t hash) with
// hash == containers::hash_bytes(word). The view points at a stack buffer,
// valid only during the call.
template <typename Fn>
void tokenize_words(std::span<const char> text, Fn&& fn) {
  const char* const data = text.data();
  const std::size_t n = text.size();
  char buf[kMaxWord];
  std::size_t pos = scan::find_word_start(text, 0);
  while (pos < n) {
    std::size_t len = 0;
    std::uint64_t h = containers::kHashSeed;
    bool ended = false;
    std::uint64_t next = 0;  // word lanes after the end, in the end's block
    while (pos + 8 <= n && len + 8 <= kMaxWord) {
      const std::uint64_t w = scan::load_u64(data + pos);
      const std::uint64_t word = scan::word_lanes(w);
      // The word runs up to the block's first non-word lane.
      const std::uint64_t stop = ~word & scan::kHighBits;
      const std::size_t k =
          stop == 0 ? 8 : static_cast<std::size_t>(std::countr_zero(stop)) / 8;
      if (k > 0) {
        std::uint64_t block = w | scan::upper_lanes(w) >> 2;
        if (k < 8) block &= ~std::uint64_t{0} >> (64 - 8 * k);
        std::memcpy(buf + len, &block, sizeof(block));
        h = containers::hash_fold(h, block);
        len += k;
        pos += k;
      }
      if (k < 8) {
        ended = true;
        next = word >> (8 * k);
        break;
      }
    }
    if (ended) {
      h = containers::hash_finish(h, len);
    } else {
      // Byte-wise: the span's last 7 bytes, or a word reaching kMaxWord.
      for (; pos < n && scan::is_word_byte(data[pos]); ++pos) {
        if (len < kMaxWord) buf[len++] = scan::to_lower_ascii(data[pos]);
      }
      h = containers::hash_bytes(std::string_view(buf, len));
    }
    fn(std::string_view(buf, len), h);
    // The next word often starts in the block that ended this one.
    pos = next != 0
              ? pos + static_cast<std::size_t>(std::countr_zero(next)) / 8
              : scan::find_word_start(text, pos);
  }
}

}  // namespace supmr::apps
