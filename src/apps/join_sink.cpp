#include "apps/join_sink.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>

#include "apps/sort_and_merge.hpp"
#include "apps/split.hpp"
#include "common/scan.hpp"

namespace supmr::apps {
namespace {

// The longest "%.6f" of a double: a sign, DBL_MAX's 309 integer digits, the
// point and six decimals.
constexpr std::size_t kMaxFixed6 = 1 + 309 + 1 + 6;
// Below 1e9 a value rounds to at most ten integer digits.
constexpr double kSmall = 1e9;
constexpr std::size_t kSmallFixed6 = 1 + 10 + 1 + 6;

}  // namespace

std::string score_lines(
    const std::vector<std::pair<std::string, double>>& rows) {
  // One allocation: an upper bound on every line, trimmed at the end.
  std::size_t bound = 0;
  for (const auto& [key, value] : rows) {
    bound += key.size() + 2 +
             (std::fabs(value) < kSmall ? kSmallFixed6 : kMaxFixed6);
  }
  std::string out(bound, '\0');
  char* p = out.data();
  char* const end = p + out.size();
  for (const auto& [key, value] : rows) {
    p = std::copy(key.begin(), key.end(), p);
    *p++ = '\t';
    p = std::to_chars(p, end, value, std::chars_format::fixed, 6).ptr;
    *p++ = '\n';
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
  return out;
}

std::uint64_t JoinSink::Dictionary::count(std::string_view word) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), word,
      [](const Entry* e, std::string_view w) { return e->key < w; });
  if (it == entries_.end() || (*it)->key != word) return 0;
  return (*it)->count;
}

void JoinSink::init(std::size_t num_map_threads) {
  num_mappers_ = num_map_threads;
  runs_.clear();
  results_.clear();
  malformed_ = 0;
}

Status JoinSink::prepare_round(const ingest::IngestChunk& chunk) {
  splits_ = split_lines(chunk.bytes(), map_slices(num_mappers_));
  round_base_ = runs_.size();
  runs_.resize(round_base_ + splits_.size());
  return Status::Ok();
}

void JoinSink::map_task(std::size_t task, std::size_t /*thread_id*/) {
  assert(task < splits_.size());
  Run& run = runs_[round_base_ + task];
  const std::span<const char> split = splits_[task];
  std::size_t pos = 0;
  while (pos < split.size()) {
    const std::size_t eol =
        scan::find_byte(split, pos, '\n').value_or(split.size());
    const std::string_view line(split.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    std::string_view key;
    std::uint64_t count = 0;
    if (parse(line, &key, &count)) {
      run.entries.push_back(Entry{std::string(key), count});
    } else {
      ++run.malformed;
    }
  }
}

Status JoinSink::reduce(ThreadPool&, std::size_t) {
  // Keys are unique across both upstreams, so there is nothing to fold;
  // merge sorts the runs.
  for (const Run& run : runs_) malformed_ += run.malformed;
  return Status::Ok();
}

Status JoinSink::merge(ThreadPool& pool, const core::MergePlan& plan,
                       merge::MergeStats* stats) {
  std::vector<std::vector<Entry>> runs;
  runs.reserve(runs_.size());
  for (Run& run : runs_) runs.push_back(std::move(run.entries));
  runs_.clear();
  std::vector<Entry> entries;
  SUPMR_RETURN_IF_ERROR(sort_and_merge(
      pool, plan, std::move(runs), entries,
      [](const Entry& a, const Entry& b) { return a.key < b.key; }, stats));

  // Wave 1: each slice indexes its dictionary entries and sums its totals.
  // A group starts at every joined entry whose predecessor is not a joined
  // entry with the same prefix; entries sharing a prefix sort together, so
  // this counts distinct prefixes.
  const std::size_t slices = pool.size();
  std::vector<std::vector<const Entry*>> indexed(slices);
  std::vector<Totals> sums(slices);
  const bool indexed_ok = parallel_for(
      pool, entries.size(),
      [&](std::size_t begin, std::size_t end, std::size_t slice) {
        Totals& t = sums[slice];
        for (std::size_t i = begin; i < end; ++i) {
          const Entry& e = entries[i];
          const std::size_t sep = e.key.find(separator_);
          if (sep == std::string::npos) {
            indexed[slice].push_back(&e);
            t.dictionary += e.count;
            continue;
          }
          t.joined += e.count;
          const std::string_view group(e.key.data(), sep + 1);
          if (i == 0 ||
              !std::string_view(entries[i - 1].key).starts_with(group))
            ++t.groups;
        }
      });
  if (!indexed_ok)
    return Status::Internal("join index wave dropped: thread pool shut down");
  Totals totals;
  std::vector<const Entry*> dictionary_entries;
  for (std::size_t s = 0; s < slices; ++s) {
    totals.dictionary += sums[s].dictionary;
    totals.joined += sums[s].joined;
    totals.groups += sums[s].groups;
    dictionary_entries.insert(dictionary_entries.end(), indexed[s].begin(),
                              indexed[s].end());
  }
  const Dictionary dictionary(std::move(dictionary_entries));

  // Wave 2: each slice scores its joined entries. Only joined keys move, and
  // lookups read only dictionary entries, so the slices share nothing.
  std::vector<std::vector<std::pair<std::string, double>>> scored(slices);
  const bool scored_ok = parallel_for(
      pool, entries.size(),
      [&](std::size_t begin, std::size_t end, std::size_t slice) {
        for (std::size_t i = begin; i < end; ++i) {
          Entry& e = entries[i];
          const std::size_t sep = e.key.find(separator_);
          if (sep == std::string::npos) continue;
          if (const auto value = score(e, sep, dictionary, totals))
            scored[slice].emplace_back(std::move(e.key), *value);
        }
      });
  if (!scored_ok)
    return Status::Internal("join score wave dropped: thread pool shut down");

  std::size_t total = 0;
  for (const auto& part : scored) total += part.size();
  results_.clear();
  results_.reserve(total);
  for (auto& part : scored) {
    results_.insert(results_.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
  }
  return Status::Ok();
}

std::string JoinSink::canonical_output() const {
  return score_lines(results_);
}

}  // namespace supmr::apps
