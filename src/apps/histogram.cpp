#include "apps/histogram.hpp"

#include <cassert>
#include <charconv>
#include <cstring>

#include "apps/split.hpp"

namespace supmr::apps {

std::size_t HistogramApp::bin_of(std::int64_t value) const {
  // Exact integer binning: floating-point (value/range)*bins rounds values
  // on bin edges into the wrong bin (e.g. 29/100*100 -> 28.999...).
  if (value <= options_.lo) return 0;
  if (value >= options_.hi) return options_.bins - 1;
  return static_cast<std::size_t>(
      static_cast<unsigned __int128>(distance(options_.lo, value)) *
      options_.bins / range());
}

std::int64_t HistogramApp::bin_start(std::size_t bin) const {
  // The least value v with bin_of(v) == bin: offset = ceil(bin * range /
  // bins), which lies in [0, range], so lo + offset lies in [lo, hi].
  const unsigned __int128 offset =
      (static_cast<unsigned __int128>(range()) * bin + options_.bins - 1) /
      options_.bins;
  return static_cast<std::int64_t>(static_cast<__int128>(options_.lo) +
                                   static_cast<__int128>(offset));
}

void HistogramApp::init(std::size_t num_map_threads) {
  assert(options_.hi > options_.lo && options_.bins > 0);
  num_mappers_ = num_map_threads;
  container_.init(num_map_threads, options_.bins);
  parsed_per_thread_.assign(num_map_threads, 0);
  dropped_per_thread_.assign(num_map_threads, 0);
  counts_.clear();
}

Status HistogramApp::prepare_round(const ingest::IngestChunk& chunk) {
  splits_ = split_lines(chunk.bytes(), map_slices(num_mappers_));
  return Status::Ok();
}

void HistogramApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < splits_.size());
  std::span<const char> split = splits_[task];
  std::uint64_t parsed = 0, dropped = 0;
  std::size_t begin = 0;
  while (begin < split.size()) {
    const void* nl =
        std::memchr(split.data() + begin, '\n', split.size() - begin);
    const std::size_t end =
        nl ? static_cast<std::size_t>(static_cast<const char*>(nl) -
                                      split.data())
           : split.size();
    std::int64_t value = 0;
    auto [ptr, ec] =
        std::from_chars(split.data() + begin, split.data() + end, value);
    if (ec == std::errc{} && ptr == split.data() + end) {
      if (value >= options_.lo && value < options_.hi) {
        container_.emit(thread_id, bin_of(value), std::uint64_t{1});
        ++parsed;
      } else {
        ++dropped;
      }
    } else if (end > begin) {
      ++dropped;  // malformed line
    }
    begin = end + 1;
  }
  parsed_per_thread_[thread_id] += parsed;
  dropped_per_thread_[thread_id] += dropped;
}

Status HistogramApp::reduce(ThreadPool& pool, std::size_t num_partitions) {
  counts_.assign(options_.bins, 0);
  std::vector<std::function<void(std::size_t)>> tasks;
  const std::size_t per = (options_.bins + num_partitions - 1) / num_partitions;
  for (std::size_t p = 0; p < num_partitions; ++p) {
    const std::size_t first = p * per;
    if (first >= options_.bins) break;
    const std::size_t last = std::min(first + per, options_.bins);
    tasks.push_back([this, first, last](std::size_t) {
      container_.reduce_range(first, last, counts_.data() + first);
    });
  }
  if (!pool.run_wave(tasks))
    return Status::Internal("reduce wave dropped: thread pool shut down");
  return Status::Ok();
}

Status HistogramApp::merge(ThreadPool&, const core::MergePlan&,
                           merge::MergeStats* stats) {
  // Bins are already in key order: nothing to merge.
  if (stats != nullptr) *stats = merge::MergeStats{};
  return Status::Ok();
}

std::uint64_t HistogramApp::values_parsed() const {
  std::uint64_t n = 0;
  for (auto v : parsed_per_thread_) n += v;
  return n;
}

std::uint64_t HistogramApp::values_out_of_range() const {
  std::uint64_t n = 0;
  for (auto v : dropped_per_thread_) n += v;
  return n;
}

std::string HistogramApp::canonical_output() const {
  // One "key\tcount\n" table in key order (core::ShardKind::kSortedKeys):
  // bin indices are zero-padded to one width so they sort as text, and the
  // dropped and parsed totals ride along after them, so a run that silently
  // drops values cannot match.
  const std::size_t width =
      std::to_string(counts_.empty() ? 0 : counts_.size() - 1).size();
  std::string out;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const std::string bin = std::to_string(b);
    out.append(width - bin.size(), '0');
    out += bin;
    out += '\t';
    out += std::to_string(counts_[b]);
    out += '\n';
  }
  out += "dropped\t" + std::to_string(values_out_of_range()) + '\n';
  out += "parsed\t" + std::to_string(values_parsed()) + '\n';
  return out;
}

}  // namespace supmr::apps
