// Chunk splitting shared by the applications: how prepare_round cuts one
// ingest chunk into at most `num_map_threads` map tasks.
//
// Byte-stream apps cut the chunk into pieces of about equal size, each cut
// moved forward to the next boundary the app's records allow (after a
// newline, or between words). File-oriented apps (inverted index, doc-term
// count) instead deal whole files of a coalesced MultiFileSource chunk, so
// file identity never splits across mappers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "apps/tokenize.hpp"
#include "common/status.hpp"
#include "ingest/chunk.hpp"

namespace supmr::apps {

// Cuts `text` into at most `max_splits` pieces of about equal size. Each cut
// advances until at_boundary(text, end) holds for the cut offset `end`; the
// tail piece takes whatever remains.
template <typename AtBoundary>
std::vector<std::span<const char>> split_at(std::span<const char> text,
                                            std::size_t max_splits,
                                            AtBoundary at_boundary) {
  std::vector<std::span<const char>> splits;
  if (text.empty() || max_splits == 0) return splits;
  const std::size_t target = (text.size() + max_splits - 1) / max_splits;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = std::min(begin + target, text.size());
    while (end < text.size() && !at_boundary(text, end)) ++end;
    splits.push_back(text.subspan(begin, end - begin));
    begin = end;
  }
  return splits;
}

// Cuts only after '\n', so no line is scanned by two mappers.
inline std::vector<std::span<const char>> split_lines(
    std::span<const char> text, std::size_t max_splits) {
  return split_at(text, max_splits,
                  [](std::span<const char> t, std::size_t end) {
                    return t[end - 1] == '\n';
                  });
}

// Never cuts mid-word: every cut lands on a non-word byte.
inline std::vector<std::span<const char>> split_text(
    std::span<const char> text, std::size_t max_splits) {
  return split_at(text, max_splits,
                  [](std::span<const char> t, std::size_t end) {
                    return !is_word_char(t[end]);
                  });
}

// One whole file's bytes inside a coalesced multi-file chunk.
struct FileSplit {
  std::span<const char> text;
  std::uint32_t file_id = 0;
};

// Deals the chunk's files round-robin over at most `max_tasks` tasks. Fails
// when the chunk carries no file spans: `app` needs intra-file chunking.
inline StatusOr<std::vector<std::vector<FileSplit>>> deal_files(
    const ingest::IngestChunk& chunk, std::size_t max_tasks,
    std::string_view app) {
  if (chunk.files.empty()) {
    return Status::InvalidArgument(
        std::string(app) +
        " requires intra-file chunking (MultiFileSource): chunk carries no "
        "file spans");
  }
  std::vector<std::vector<FileSplit>> tasks(
      std::min(max_tasks, chunk.files.size()));
  for (std::size_t i = 0; i < chunk.files.size(); ++i) {
    const ingest::FileSpan& span = chunk.files[i];
    tasks[i % tasks.size()].push_back(
        FileSplit{chunk.bytes().subspan(span.offset_in_chunk, span.length),
                  static_cast<std::uint32_t>(span.file_index)});
  }
  return tasks;
}

}  // namespace supmr::apps
