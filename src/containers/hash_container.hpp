// Hash container: Phoenix++'s default intermediate store.
//
// One ArenaHashMap per map thread — emission takes no locks (the map thread
// writes only its own stripe). The reduce phase walks a hash partition
// across all stripes and merges accumulators, so reducers also proceed
// without locks (each owns a disjoint partition).
//
// The container is *persistent* across map rounds (paper §III.C): init()
// allocates the stripes once; subsequent rounds' mapper waves keep emitting
// into the same stripes. reset() exists for tests that demonstrate what goes
// wrong when a runtime re-initializes per round.
//
// Best for workloads that fold a large input into a small intermediate set
// (word count). For sort — unique keys, intermediate set == input set — use
// ArrayContainer; the paper explains why a hash container is pathological
// there (§V.B).
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "containers/arena_hash_map.hpp"

namespace supmr::containers {

template <typename Combiner>
class HashContainer {
 public:
  using value_type = typename Combiner::value_type;

  // Allocates one stripe per map thread. Idempotent: later calls (new map
  // rounds in the chunk pipeline) are no-ops — this is the persistence the
  // SupMR runtime requires.
  //
  // A thread-count change across rounds is a hard error, not an assert: a
  // runtime that re-leases a different thread count mid-job (JobManager)
  // would otherwise index out-of-bounds stripes silently in release builds.
  void init(std::size_t num_map_threads, std::size_t capacity_hint = 1024) {
    if (initialized_) {
      if (stripes_.size() != num_map_threads)
        throw std::logic_error(
            "HashContainer::init: map thread count changed across rounds (" +
            std::to_string(stripes_.size()) + " -> " +
            std::to_string(num_map_threads) + "); reset() first");
      return;
    }
    stripes_.clear();
    stripes_.reserve(num_map_threads);
    for (std::size_t i = 0; i < num_map_threads; ++i)
      stripes_.emplace_back(capacity_hint);
    initialized_ = true;
  }

  bool initialized() const { return initialized_; }

  // Drops all state (the non-persistent behaviour of the original runtime;
  // tests use it to show pair loss across rounds).
  void reset() {
    stripes_.clear();
    initialized_ = false;
  }

  // Map-side emission; `thread_id` must be the calling map thread's index
  // and `h` must be hash_bytes(key).
  void emit(std::size_t thread_id, std::string_view key, std::uint64_t h,
            const auto& mapped_value) {
    assert(thread_id < stripes_.size());
    value_type& acc =
        stripes_[thread_id].find_or_insert(key, h, Combiner::identity());
    Combiner::combine(acc, mapped_value);
  }
  void emit(std::size_t thread_id, std::string_view key,
            const auto& mapped_value) {
    emit(thread_id, key, hash_bytes(key), mapped_value);
  }

  std::size_t num_stripes() const { return stripes_.size(); }

  // Total entries across stripes (same key in two stripes counts twice —
  // the reduce phase is what de-duplicates).
  std::size_t raw_entries() const {
    std::size_t n = 0;
    for (const auto& s : stripes_) n += s.size();
    return n;
  }

  // Resident footprint of the stripes (slot arrays + key arenas); it never
  // shrinks before reset().
  std::size_t memory_bytes() const {
    std::size_t b = 0;
    for (const auto& s : stripes_) b += s.memory_bytes();
    return b;
  }

  // Reduce-side: merges partition `part` of `num_parts` across all stripes
  // into owned (key, accumulator) pairs, folding under each slot's stored
  // hash. Each partition is disjoint, so concurrent calls with distinct
  // `part` are safe.
  std::vector<std::pair<std::string, value_type>> reduce_partition(
      std::size_t part, std::size_t num_parts) const {
    ArenaHashMap<value_type> merged(256);
    for (const auto& stripe : stripes_) {
      stripe.for_each_in_partition(
          part, num_parts,
          [&](std::string_view key, std::uint64_t h, const value_type& v) {
            value_type& acc =
                merged.find_or_insert(key, h, Combiner::identity());
            Combiner::merge(acc, v);
          });
    }
    std::vector<std::pair<std::string, value_type>> out;
    out.reserve(merged.size());
    merged.for_each([&](std::string_view key, const value_type& v) {
      out.emplace_back(std::string(key), v);
    });
    return out;
  }

 private:
  std::vector<ArenaHashMap<value_type>> stripes_;
  bool initialized_ = false;
};

}  // namespace supmr::containers
