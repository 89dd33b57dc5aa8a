#include "apps/pmi.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "apps/split.hpp"
#include "common/scan.hpp"
#include "merge/introsort.hpp"

namespace supmr::apps {
namespace {

// Parses "key\tcount". Returns false on any malformed shape.
bool parse_line(std::string_view line, std::string_view* key,
                std::uint64_t* count) {
  const std::size_t tab = line.find('\t');
  if (tab == std::string_view::npos || tab == 0) return false;
  std::uint64_t value = 0;
  std::size_t i = tab + 1;
  if (i >= line.size()) return false;
  for (; i < line.size(); ++i) {
    const char c = line[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *key = line.substr(0, tab);
  *count = value;
  return true;
}

}  // namespace

void PmiApp::init(std::size_t num_map_threads) {
  num_mappers_ = num_map_threads;
  stripes_.assign(num_map_threads, {});
  malformed_stripes_.assign(num_map_threads, 0);
  entries_.clear();
  pmi_.clear();
  malformed_ = 0;
}

Status PmiApp::prepare_round(const ingest::IngestChunk& chunk) {
  splits_ = split_lines(chunk.bytes(), map_slices(num_mappers_));
  return Status::Ok();
}

void PmiApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < splits_.size() && thread_id < num_mappers_);
  const std::span<const char> split = splits_[task];
  std::size_t pos = 0;
  while (pos < split.size()) {
    const std::size_t eol =
        scan::find_byte(split, pos, '\n').value_or(split.size());
    const std::string_view line(split.data() + pos, eol - pos);
    if (!line.empty()) {
      std::string_view key;
      std::uint64_t count = 0;
      if (parse_line(line, &key, &count)) {
        stripes_[thread_id].push_back(Entry{std::string(key), count});
      } else {
        ++malformed_stripes_[thread_id];
      }
    }
    pos = eol + 1;
  }
}

Status PmiApp::reduce(ThreadPool&, std::size_t) {
  // Keys are globally unique across both upstreams, so "reduce" is just
  // gathering the stripes; the global order is established in merge.
  std::size_t total = 0;
  for (const auto& s : stripes_) total += s.size();
  entries_.clear();
  entries_.reserve(total);
  for (auto& s : stripes_) {
    entries_.insert(entries_.end(), std::make_move_iterator(s.begin()),
                    std::make_move_iterator(s.end()));
    s.clear();
  }
  for (auto m : malformed_stripes_) malformed_ += m;
  return Status::Ok();
}

Status PmiApp::merge(ThreadPool&, const core::MergePlan&,
                     merge::MergeStats* stats) {
  merge::introsort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) { return a.key < b.key; });

  // Pass 1: totals and the unigram table (entries_ is sorted, so the
  // unigram subset is sorted too — binary search below).
  std::vector<const Entry*> unigrams;
  double n_words = 0, n_pairs = 0;
  for (const Entry& e : entries_) {
    if (e.key.find(' ') == std::string::npos) {
      unigrams.push_back(&e);
      n_words += static_cast<double>(e.count);
    } else {
      n_pairs += static_cast<double>(e.count);
    }
  }
  auto unigram_count = [&](std::string_view word) -> double {
    auto it = std::lower_bound(
        unigrams.begin(), unigrams.end(), word,
        [](const Entry* e, std::string_view w) { return e->key < w; });
    if (it == unigrams.end() || (*it)->key != word) return 0;
    return static_cast<double>((*it)->count);
  };

  // Pass 2: PMI per pair, in sorted pair-key order.
  pmi_.clear();
  for (const Entry& e : entries_) {
    const std::size_t space = e.key.find(' ');
    if (space == std::string::npos) continue;
    const double c1 = unigram_count(std::string_view(e.key).substr(0, space));
    const double c2 = unigram_count(std::string_view(e.key).substr(space + 1));
    if (c1 <= 0 || c2 <= 0 || n_pairs <= 0 || n_words <= 0) continue;
    const double joint = static_cast<double>(e.count) / n_pairs;
    const double indep = (c1 / n_words) * (c2 / n_words);
    pmi_.emplace_back(e.key, std::log(joint / indep));
  }
  entries_.clear();
  if (stats != nullptr) *stats = merge::MergeStats{};
  return Status::Ok();
}

std::string PmiApp::canonical_output() const {
  std::string out;
  char buf[32];
  for (const auto& [key, value] : pmi_) {
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    out += key;
    out += '\t';
    out += buf;
    out += '\n';
  }
  return out;
}

}  // namespace supmr::apps
