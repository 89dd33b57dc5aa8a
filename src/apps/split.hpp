// Chunk splitting shared by the applications: how prepare_round cuts one
// ingest chunk into map tasks.
//
// A round is cut into up to map_slices(m) slices for m mappers, and the
// round's m workers claim slices until none remain (core/job.cpp), so a
// mapper that starts late or runs slowly maps fewer slices instead of
// holding up the wave. Byte-stream apps cut the chunk into pieces of about
// equal size, each cut moved forward to the next boundary the app's records
// allow (after a newline, or between words). Fixed-record apps cut whole
// records (split_records). File-oriented apps (inverted index, doc-term
// count) instead deal whole files of a coalesced MultiFileSource chunk, so
// file identity never splits across tasks.
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

// Slices per mapper. A constant, not a knob: at 16, a 16 MiB chunk on 4
// mappers is 64 slices of 256 KiB, small enough that the wave's slowest
// worker finishes its last slice close to the others, large enough that a
// slice's claim and call cost nothing next to its bytes.
inline constexpr std::size_t kSlicesPerMapper = 16;

// The most slices a round is cut into for `mappers` mappers.
constexpr std::size_t map_slices(std::size_t mappers) {
  return kSlicesPerMapper * mappers;
}

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

// Records [first, first + count) of a round's fixed-size records.
struct RecordSlice {
  std::uint64_t first = 0;
  std::uint64_t count = 0;
};

// Cuts `records` whole records into at most `max_slices` contiguous slices
// of ceil(records / max_slices) records; the last takes what remains.
inline std::vector<RecordSlice> split_records(std::uint64_t records,
                                              std::size_t max_slices) {
  std::vector<RecordSlice> slices;
  if (records == 0 || max_slices == 0) return slices;
  const std::uint64_t per = (records + max_slices - 1) / max_slices;
  for (std::uint64_t first = 0; first < records; first += per)
    slices.push_back(RecordSlice{first, std::min(per, records - first)});
  return slices;
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
