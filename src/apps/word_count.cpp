#include "apps/word_count.hpp"

#include <cassert>

#include "apps/split.hpp"
#include "apps/tokenize.hpp"

namespace supmr::apps {
namespace {

// A budgeted table starts small (16 KiB a stripe), so a fresh table fits a
// small budget and a spill gives memory back.
std::size_t capacity_hint(bool budgeted) { return budgeted ? 256 : 4096; }

}  // namespace

void WordCountApp::init(std::size_t num_map_threads) {
  init_container(num_map_threads, capacity_hint(runs_ != nullptr));
  words_per_thread_.assign(num_map_threads, 0);
  runs_spilled_ = 0;
  spilled_stats_ = {};
}

Status WordCountApp::prepare_round(const ingest::IngestChunk& chunk) {
  // Coordinator context, no mapper running: the one safe point to swap the
  // table out.
  if (runs_ && container_.raw_entries() > 0 &&
      container_.memory_bytes() > budget_bytes_) {
    std::vector<Result> run = container_.reduce_partition(0, 1);
    merge::introsort(run.begin(), run.end(),
                     [](const Result& a, const Result& b) {
                       return a.first < b.first;
                     });
    SUPMR_RETURN_IF_ERROR(runs_->write(run));
    ++runs_spilled_;
    spilled_stats_.add(container_.stats());
    // Release the table: reset() frees the stripes, init() starts fresh.
    container_.reset();
    container_.init(num_mappers_, capacity_hint(true));
  }
  splits_ = split_text(chunk.bytes(), map_slices(num_mappers_));
  return Status::Ok();
}

void WordCountApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < splits_.size() && thread_id < num_mappers_);
  std::uint64_t words = 0;
  tokenize_words(splits_[task], [&](std::string_view word, std::uint64_t h) {
    container_.emit(thread_id, word, h, std::uint64_t{1});
    ++words;
  });
  words_per_thread_[thread_id] += words;
}

Status WordCountApp::merge(ThreadPool& pool, const core::MergePlan& plan,
                           merge::MergeStats* stats) {
  SUPMR_RETURN_IF_ERROR(KeyedApp::merge(pool, plan, stats));
  if (!runs_ || runs_->size() == 0) return Status::Ok();
  SUPMR_ASSIGN_OR_RETURN(results_, runs_->fold(std::move(results_)));
  return Status::Ok();
}

core::CombineStats WordCountApp::combine_stats() const {
  core::CombineStats s = KeyedApp::combine_stats();
  s.add(spilled_stats_);
  return s;
}

std::uint64_t WordCountApp::words_mapped() const {
  std::uint64_t n = 0;
  for (auto w : words_per_thread_) n += w;
  return n;
}

}  // namespace supmr::apps
