#include "apps/pair_count.hpp"

#include <algorithm>
#include <cassert>

#include "apps/split.hpp"
#include "apps/tokenize.hpp"
#include "common/scan.hpp"

namespace supmr::apps {

void for_each_pair(std::span<const char> text,
                   const std::function<void(std::string_view)>& fn) {
  char key[2 * kMaxWord + 2];
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol =
        scan::find_byte(text, pos, '\n').value_or(text.size());
    std::size_t prev_len = 0;  // previous word, already lowercased in key[]
    tokenize_words(text.subspan(pos, eol - pos),
                   [&](std::string_view word, std::uint64_t) {
      if (prev_len > 0) {
        key[prev_len] = ' ';
        std::copy(word.begin(), word.end(), key + prev_len + 1);
        fn(std::string_view(key, prev_len + 1 + word.size()));
      }
      std::copy(word.begin(), word.end(), key);
      prev_len = word.size();
    });
    pos = eol + 1;
  }
}

void PairCountApp::init(std::size_t num_map_threads) {
  init_container(num_map_threads, /*capacity_hint=*/4096);
}

Status PairCountApp::prepare_round(const ingest::IngestChunk& chunk) {
  splits_ = split_lines(chunk.bytes(), map_slices(num_mappers_));
  return Status::Ok();
}

void PairCountApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < splits_.size() && thread_id < num_mappers_);
  for_each_pair(splits_[task], [&](std::string_view pair) {
    container_.emit(thread_id, pair, std::uint64_t{1});
  });
}

}  // namespace supmr::apps
