#include "apps/doc_term_count.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "apps/tokenize.hpp"

namespace supmr::apps {

void DocTermCountApp::init(std::size_t num_map_threads) {
  init_container(num_map_threads, /*capacity_hint=*/4096);
}

Status DocTermCountApp::prepare_round(const ingest::IngestChunk& chunk) {
  SUPMR_ASSIGN_OR_RETURN(
      tasks_, deal_files(chunk, map_slices(num_mappers_), "doc term count"));
  return Status::Ok();
}

void DocTermCountApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < tasks_.size());
  char key[kMaxWord + 16];
  for (const FileSplit& file : tasks_[task]) {
    // Composite key prefix "<file_id>\t" shared by every word of the file.
    const int prefix = std::snprintf(key, sizeof(key), "%u\t", file.file_id);
    tokenize_words(file.text, [&](std::string_view word, std::uint64_t) {
      std::copy(word.begin(), word.end(), key + prefix);
      container_.emit(
          thread_id,
          std::string_view(key, static_cast<std::size_t>(prefix) + word.size()),
          std::uint64_t{1});
    });
  }
}

}  // namespace supmr::apps
