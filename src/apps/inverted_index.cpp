#include "apps/inverted_index.hpp"

#include <algorithm>
#include <cassert>

#include "apps/tokenize.hpp"

namespace supmr::apps {

void InvertedIndexApp::init(std::size_t num_map_threads) {
  init_container(num_map_threads, /*capacity_hint=*/4096);
}

Status InvertedIndexApp::prepare_round(const ingest::IngestChunk& chunk) {
  SUPMR_ASSIGN_OR_RETURN(
      tasks_, deal_files(chunk, map_slices(num_mappers_), "inverted index"));
  return Status::Ok();
}

void InvertedIndexApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < tasks_.size());
  for (const FileSplit& file : tasks_[task]) {
    tokenize_words(file.text, [&](std::string_view word, std::uint64_t h) {
      container_.emit(thread_id, word, h, file.file_id);
    });
  }
}

void InvertedIndexApp::finish_partition(std::vector<Posting>& partition) {
  for (auto& [word, files] : partition) {
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
  }
}

}  // namespace supmr::apps
