// Array container: Phoenix's "unlocked storage" for unique-key workloads.
//
// Sort transforms the input into an equal-sized intermediate set with unique
// keys, so hashing is pure overhead (paper §V.B). Instead, all threads write
// fixed-width records into claimed slots without synchronization: before
// each map round the coordinator claims a slot range for the round's
// records, then each mapper writes its own disjoint sub-range.
//
// Slots live in segments whose capacity doubles. A claim that does not fit
// in the last segment's free tail opens a new segment, so the slots of one
// claim are always contiguous, records already written are never copied,
// and nothing is zero-filled: a page is first touched by the mapper that
// writes it, not by the coordinator. The free tail a new segment leaves
// behind is never touched.
//
// Records are copied in, so the container owns the data and chunk buffers
// can be recycled — which is what lets the persistent container span the
// whole ingest stream while only two chunks stay resident.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

namespace supmr::containers {

class ArrayContainer {
 public:
  // Idempotent across map rounds (persistence, paper §III.C).
  void init(std::uint64_t record_bytes) {
    if (initialized_) {
      if (record_bytes_ != record_bytes)
        throw std::logic_error(
            "ArrayContainer::init: record_bytes changed across rounds; "
            "reset() first");
      return;
    }
    record_bytes_ = record_bytes;
    segments_.clear();
    used_records_ = 0;
    initialized_ = true;
  }

  bool initialized() const { return initialized_; }
  std::uint64_t record_bytes() const { return record_bytes_; }
  std::uint64_t size() const { return used_records_; }

  // Frees every segment; init() may then pick a new record width.
  void reset() {
    segments_.clear();
    used_records_ = 0;
    initialized_ = false;
  }

  // Claims `n` record slots and returns the first slot index. Must be called
  // between map waves; mappers then fill their disjoint sub-ranges
  // concurrently through mutable_record(first): the `n` slots are contiguous
  // in memory. They hold indeterminate bytes until written.
  std::uint64_t claim(std::uint64_t n) {
    assert(initialized_);
    const std::uint64_t base = used_records_;
    if (n == 0) return base;
    if (segments_.empty() ||
        segments_.back().capacity - segments_.back().count < n) {
      const std::uint64_t capacity = std::max(
          n, segments_.empty() ? 0 : 2 * segments_.back().capacity);
      segments_.push_back(Segment{
          std::make_unique_for_overwrite<char[]>(capacity * record_bytes_),
          base, capacity, 0});
    }
    segments_.back().count += n;
    used_records_ += n;
    return base;
  }

  // Unsynchronized access to a claimed slot (each mapper owns its slots).
  char* mutable_record(std::uint64_t slot) {
    assert(slot < used_records_);
    const Segment& s = segment_of(slot);
    return s.bytes.get() + (slot - s.first) * record_bytes_;
  }

  // The claimed records in slot order: one span of whole records per
  // segment.
  std::vector<std::span<const char>> segments() const {
    std::vector<std::span<const char>> spans;
    spans.reserve(segments_.size());
    for (const Segment& s : segments_)
      spans.emplace_back(s.bytes.get(), s.count * record_bytes_);
    return spans;
  }

 private:
  struct Segment {
    std::unique_ptr<char[]> bytes;  // capacity * record_bytes_
    std::uint64_t first = 0;        // slot index of the first record
    std::uint64_t capacity = 0;     // in records
    std::uint64_t count = 0;        // records claimed so far
  };

  // The segment holding `slot`: the last one whose first slot is <= slot.
  // Every segment holds at least one claimed record, so first slots are
  // strictly increasing.
  const Segment& segment_of(std::uint64_t slot) const {
    const auto after = std::upper_bound(
        segments_.begin(), segments_.end(), slot,
        [](std::uint64_t s, const Segment& seg) { return s < seg.first; });
    return *std::prev(after);
  }

  std::vector<Segment> segments_;
  std::uint64_t record_bytes_ = 0;
  std::uint64_t used_records_ = 0;
  bool initialized_ = false;
};

}  // namespace supmr::containers
