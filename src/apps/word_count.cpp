#include "apps/word_count.hpp"

#include <cassert>

#include "apps/split.hpp"
#include "apps/tokenize.hpp"

namespace supmr::apps {

void WordCountApp::init(std::size_t num_map_threads) {
  init_container(num_map_threads, /*capacity_hint=*/4096);
  words_per_thread_.assign(num_map_threads, 0);
}

Status WordCountApp::prepare_round(const ingest::IngestChunk& chunk) {
  splits_ = split_text(chunk.bytes(), num_mappers_);
  return Status::Ok();
}

void WordCountApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < splits_.size() && thread_id < num_mappers_);
  std::uint64_t words = 0;
  tokenize_words(splits_[task], [&](std::string_view word) {
    container_.emit(thread_id, word, std::uint64_t{1});
    ++words;
  });
  words_per_thread_[thread_id] += words;
}

std::uint64_t WordCountApp::words_mapped() const {
  std::uint64_t n = 0;
  for (auto w : words_per_thread_) n += w;
  return n;
}

}  // namespace supmr::apps
