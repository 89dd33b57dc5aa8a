#include "apps/scatter.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "merge/introsort.hpp"

namespace supmr::apps {

void ScatterApp::init(std::size_t num_map_threads) {
  num_mappers_ = num_map_threads;
  stripes_.assign(num_map_threads, {});
  staged_.clear();
  routed_.clear();
  output_.clear();
  records_ = 0;
  malformed_ = 0;
}

Status ScatterApp::prepare_round(const ingest::IngestChunk& chunk) {
  const std::span<const char> bytes = chunk.bytes();
  const std::uint64_t rb = options_.record_bytes;
  if (rb == 0) return Status::InvalidArgument("scatter: record_bytes == 0");
  const std::uint64_t num_records = bytes.size() / rb;
  if (bytes.size() % rb != 0) ++malformed_;
  if (chunk.offset % rb != 0) {
    return Status::InvalidArgument(
        "scatter: chunk offset not record-aligned (need CrlfFormat-style "
        "fixed-record chunking)");
  }

  // Stage the records now — the chunk's bytes are only valid for this
  // round, and merge materializes from the staged copy.
  const std::uint64_t stage_at = staged_.size();
  staged_.insert(staged_.end(), bytes.begin(),
                 bytes.begin() + static_cast<std::ptrdiff_t>(num_records * rb));

  round_offset_ = chunk.offset;
  round_stage_at_ = stage_at;
  tasks_ = split_records(num_records, map_slices(num_mappers_));
  return Status::Ok();
}

void ScatterApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < tasks_.size() && thread_id < num_mappers_);
  const RecordSlice& t = tasks_[task];
  const std::uint64_t rb = options_.record_bytes;
  auto& stripe = stripes_[thread_id];
  for (std::uint64_t r = t.first; r < t.first + t.count; ++r) {
    const std::uint64_t src = round_stage_at_ + r * rb;
    const auto first_byte = static_cast<unsigned char>(staged_[src]);
    const std::uint64_t bucket =
        static_cast<std::uint64_t>(first_byte) * options_.buckets / 256;
    const std::uint64_t global_index = round_offset_ / rb + r;
    stripe.push_back(Routed{bucket << 48 | global_index, src});
  }
}

Status ScatterApp::reduce(ThreadPool&, std::size_t) {
  // Routing entries carry a globally unique order key; reduce just gathers
  // the per-thread stripes.
  std::size_t total = 0;
  for (const auto& s : stripes_) total += s.size();
  routed_.clear();
  routed_.reserve(total);
  for (auto& s : stripes_) {
    routed_.insert(routed_.end(), s.begin(), s.end());
    s.clear();
  }
  return Status::Ok();
}

Status ScatterApp::merge(ThreadPool&, const core::MergePlan&,
                         merge::MergeStats* stats) {
  merge::introsort(
      routed_.begin(), routed_.end(),
      [](const Routed& a, const Routed& b) { return a.order < b.order; });
  const std::uint64_t rb = options_.record_bytes;
  output_.resize(routed_.size() * rb);
  char* dst = output_.data();
  for (const Routed& r : routed_) {
    std::memcpy(dst, staged_.data() + r.src, rb);
    dst += rb;
  }
  records_ = routed_.size();
  routed_.clear();
  staged_.clear();
  staged_.shrink_to_fit();
  if (stats != nullptr) *stats = merge::MergeStats{};
  return Status::Ok();
}

std::string ScatterApp::canonical_output() const {
  return std::string(output_.begin(), output_.end());
}

}  // namespace supmr::apps
