#include "apps/external_word_count.hpp"

#include "apps/keyed_app.hpp"
#include "apps/split.hpp"
#include "apps/tokenize.hpp"

namespace supmr::apps {

void ExternalWordCountApp::init(std::size_t num_map_threads) {
  num_mappers_ = num_map_threads;
  container_.init(num_map_threads, options_);
  results_.clear();
  runs_spilled_ = 0;
}

Status ExternalWordCountApp::prepare_round(const ingest::IngestChunk& chunk) {
  // Coordinator context: no mappers are running, so stripes may be drained.
  SUPMR_RETURN_IF_ERROR(container_.maybe_spill());
  splits_ = split_text(chunk.bytes(), num_mappers_);
  return Status::Ok();
}

void ExternalWordCountApp::map_task(std::size_t task, std::size_t thread_id) {
  tokenize_words(splits_[task], [&](std::string_view word) {
    container_.emit(thread_id, word, 1);
  });
}

Status ExternalWordCountApp::reduce(ThreadPool&, std::size_t) {
  runs_spilled_ = container_.runs_spilled();
  // Streaming combining merge over spilled runs + live stripes.
  return container_.merge_reduce(
      [&](std::string_view word, std::uint64_t count) {
        results_.emplace_back(std::string(word), count);
      });
}

Status ExternalWordCountApp::merge(ThreadPool&, const core::MergePlan&,
                                   merge::MergeStats* stats) {
  // merge_reduce already emitted in key order.
  if (stats != nullptr) *stats = merge::MergeStats{};
  return Status::Ok();
}

std::string ExternalWordCountApp::canonical_output() const {
  // Same encoding as WordCountApp — the spilling container promises
  // byte-identical output at any budget, and the conformance harness holds
  // it to that.
  return keyed_output(results_);
}

}  // namespace supmr::apps
