#include "apps/grep.hpp"

#include <cassert>
#include <cstring>

#include "apps/split.hpp"

namespace supmr::apps {

std::vector<std::string> split_patterns(std::string_view csv) {
  std::vector<std::string> patterns;
  while (true) {
    const std::size_t comma = csv.find(',');
    patterns.emplace_back(csv.substr(0, comma));
    if (comma == std::string_view::npos) return patterns;
    csv.remove_prefix(comma + 1);
  }
}

std::uint64_t count_occurrences(std::string_view haystack,
                                std::string_view needle) {
  if (needle.empty() || haystack.size() < needle.size()) return 0;
  std::uint64_t count = 0;
  std::size_t pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string_view::npos) {
    ++count;
    pos += needle.size();  // non-overlapping
  }
  return count;
}

void GrepApp::init(std::size_t num_map_threads) {
  init_container(num_map_threads, /*capacity_hint=*/64);
  lines_per_thread_.assign(num_map_threads, 0);
}

Status GrepApp::prepare_round(const ingest::IngestChunk& chunk) {
  splits_ = split_lines(chunk.bytes(), map_slices(num_mappers_));
  return Status::Ok();
}

void GrepApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < splits_.size());
  std::span<const char> split = splits_[task];
  std::uint64_t lines = 0;
  std::size_t begin = 0;
  while (begin < split.size()) {
    const void* nl = std::memchr(split.data() + begin, '\n',
                                 split.size() - begin);
    const std::size_t end =
        nl ? static_cast<std::size_t>(static_cast<const char*>(nl) -
                                      split.data())
           : split.size();
    const std::string_view line(split.data() + begin, end - begin);
    for (const std::string& pattern : patterns_) {
      const std::uint64_t hits = count_occurrences(line, pattern);
      if (hits > 0) container_.emit(thread_id, pattern, hits);
    }
    ++lines;
    begin = end + 1;
  }
  lines_per_thread_[thread_id] += lines;
}

std::uint64_t GrepApp::lines_scanned() const {
  std::uint64_t n = 0;
  for (auto l : lines_per_thread_) n += l;
  return n;
}

}  // namespace supmr::apps
