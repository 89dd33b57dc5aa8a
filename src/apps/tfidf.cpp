#include "apps/tfidf.hpp"

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

bool parse_count(std::string_view digits, std::uint64_t* out) {
  if (digits.empty()) return false;
  std::uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

// Document frequency of an index line = 1 + number of commas in the
// posting list (the list is non-empty by construction).
std::uint32_t posting_size(std::string_view csv) {
  std::uint32_t n = 1;
  for (char c : csv)
    if (c == ',') ++n;
  return n;
}

}  // namespace

void TfIdfApp::init(std::size_t num_map_threads) {
  num_mappers_ = num_map_threads;
  stripes_.assign(num_map_threads, {});
  terms_.clear();
  freqs_.clear();
  scores_.clear();
  malformed_ = 0;
}

Status TfIdfApp::prepare_round(const ingest::IngestChunk& chunk) {
  splits_ = split_lines(chunk.bytes(), map_slices(num_mappers_));
  return Status::Ok();
}

void TfIdfApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < splits_.size() && thread_id < num_mappers_);
  Stripe& stripe = stripes_[thread_id];
  const std::span<const char> split = splits_[task];
  std::size_t pos = 0;
  while (pos < split.size()) {
    const std::size_t eol =
        scan::find_byte(split, pos, '\n').value_or(split.size());
    const std::string_view line(split.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const std::size_t tab1 = line.find('\t');
    if (tab1 == std::string_view::npos || tab1 == 0) {
      ++stripe.malformed;
      continue;
    }
    const std::size_t tab2 = line.find('\t', tab1 + 1);
    if (tab2 == std::string_view::npos) {
      // Index line: "word\tf1,f2,..." — document frequency.
      stripe.freqs.push_back(DocFreq{std::string(line.substr(0, tab1)),
                                     posting_size(line.substr(tab1 + 1))});
    } else {
      // Doc-term line: "<file_id>\t<word>\t<count>".
      std::uint64_t count = 0;
      if (!parse_count(line.substr(tab2 + 1), &count)) {
        ++stripe.malformed;
        continue;
      }
      stripe.terms.push_back(DocTerm{std::string(line.substr(0, tab2)), count});
    }
  }
}

Status TfIdfApp::reduce(ThreadPool&, std::size_t) {
  // Both upstream encodings carry unique keys, so gathering the stripes is
  // the whole reduce; ordering happens in merge.
  for (auto& s : stripes_) {
    terms_.insert(terms_.end(), std::make_move_iterator(s.terms.begin()),
                  std::make_move_iterator(s.terms.end()));
    freqs_.insert(freqs_.end(), std::make_move_iterator(s.freqs.begin()),
                  std::make_move_iterator(s.freqs.end()));
    malformed_ += s.malformed;
    s = Stripe{};
  }
  return Status::Ok();
}

Status TfIdfApp::merge(ThreadPool&, const core::MergePlan&,
                       merge::MergeStats* stats) {
  merge::introsort(
      terms_.begin(), terms_.end(),
      [](const DocTerm& a, const DocTerm& b) { return a.key < b.key; });
  merge::introsort(
      freqs_.begin(), freqs_.end(),
      [](const DocFreq& a, const DocFreq& b) { return a.word < b.word; });

  // N = distinct documents; terms_ is sorted by "<file_id>\t...", so
  // distinct file-id prefixes arrive grouped.
  double n_docs = 0;
  std::string_view last_doc;
  bool have_last = false;
  for (const DocTerm& t : terms_) {
    const std::string_view doc =
        std::string_view(t.key).substr(0, t.key.find('\t'));
    if (!have_last || doc != last_doc) {
      n_docs += 1;
      last_doc = doc;
      have_last = true;
    }
  }
  auto df_of = [&](std::string_view word) -> double {
    auto it = std::lower_bound(
        freqs_.begin(), freqs_.end(), word,
        [](const DocFreq& f, std::string_view w) { return f.word < w; });
    if (it == freqs_.end() || it->word != word) return 0;
    return static_cast<double>(it->df);
  };

  scores_.clear();
  scores_.reserve(terms_.size());
  for (const DocTerm& t : terms_) {
    const std::size_t tab = t.key.find('\t');
    const double df = df_of(std::string_view(t.key).substr(tab + 1));
    if (df <= 0 || n_docs <= 0) continue;  // word unseen by the index side
    scores_.emplace_back(t.key, static_cast<double>(t.count) *
                                    std::log(n_docs / df));
  }
  terms_.clear();
  freqs_.clear();
  if (stats != nullptr) *stats = merge::MergeStats{};
  return Status::Ok();
}

std::string TfIdfApp::canonical_output() const {
  std::string out;
  char buf[32];
  for (const auto& [key, value] : scores_) {
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    out += key;
    out += '\t';
    out += buf;
    out += '\n';
  }
  return out;
}

}  // namespace supmr::apps
