// Word tokenizer shared by the text applications (word count, pair count,
// doc-term count, inverted index).
//
// A word is a maximal run of ASCII letters/digits, lowercased. Delimiter
// runs are skipped eight bytes at a time (common/scan.hpp SWAR prefilter),
// and classification/lowercasing are single table loads instead of
// locale-dispatching <cctype> calls — the tokenizer touches every input
// byte, so it sits squarely on the ingest bandwidth path the paper is
// about. Lowercasing happens into a small stack buffer so the hot loop
// performs no heap allocation; pathological words longer than kMaxWord are
// truncated (they still count, under their truncated spelling).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string_view>

#include "common/scan.hpp"

namespace supmr::apps {

inline constexpr std::size_t kMaxWord = 255;

inline bool is_word_char(char c) { return scan::is_word_byte(c); }

// fn(std::string_view word) — the view points at a stack buffer, valid only
// during the call.
template <typename Fn>
void tokenize_words(std::span<const char> text, Fn&& fn) {
  char buf[kMaxWord + 1];
  std::size_t pos = 0;
  while (true) {
    const std::size_t start = scan::find_word_start(text, pos);
    if (start >= text.size()) return;
    const std::size_t end = scan::find_word_end(text, start);
    const std::size_t len = std::min(end - start, kMaxWord);
    for (std::size_t i = 0; i < len; ++i) {
      buf[i] = scan::to_lower_ascii(text[start + i]);
    }
    fn(std::string_view(buf, len));
    pos = end;
  }
}

}  // namespace supmr::apps
