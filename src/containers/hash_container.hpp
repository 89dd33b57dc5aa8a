// Hash container: Phoenix++'s default intermediate store, and the one keyed
// container.
//
// One ArenaHashMap per map thread — emission takes no locks (the map thread
// writes only its own stripe) and folds every emit into its key's
// accumulator with the app's combiner, so a word-count table stays at
// vocabulary size, not input size. The reduce phase walks a hash partition
// across all stripes and merges accumulators, so reducers also proceed
// without locks (each owns a disjoint partition).
//
// Every stripe counts its emits and the bytes they carried, so stats()
// reports how much the fold saved (core::CombineStats; the JSON `combine`
// block and the container.* metrics).
//
// The container is *persistent* across map rounds (paper §III.C): init()
// allocates the stripes once; subsequent rounds' mapper waves keep emitting
// into the same stripes. reset() drops them (word count's spill, and tests
// that demonstrate what goes wrong when a runtime re-initializes per round).
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
#include "core/application.hpp"

namespace supmr::containers {

// Byte size of one emitted/stored value as it would cross into merge:
// scalars by sizeof, Append accumulators by their element payload.
template <typename V>
inline std::uint64_t value_payload_bytes(const V&) {
  return sizeof(V);
}
template <typename E>
inline std::uint64_t value_payload_bytes(const std::vector<E>& v) {
  return v.size() * sizeof(E);
}

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

  // Drops all state, fold counters included (the non-persistent behaviour
  // of the original runtime; tests use it to show pair loss across rounds).
  void reset() {
    stripes_.clear();
    initialized_ = false;
  }

  // Map-side emission: find-or-insert in the calling thread's stripe, then
  // combine. `thread_id` must be the calling map thread's index and `h`
  // must be hash_bytes(key).
  void emit(std::size_t thread_id, std::string_view key, std::uint64_t h,
            const auto& mapped_value) {
    assert(thread_id < stripes_.size());
    Stripe& s = stripes_[thread_id];
    ++s.emits;
    s.bytes_emitted += key.size() + value_payload_bytes(mapped_value);
    Combiner::combine(s.table.find_or_insert(key, h, Combiner::identity()),
                      mapped_value);
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
    for (const Stripe& s : stripes_) n += s.table.size();
    return n;
  }

  // Resident footprint of the stripes (slot arrays + key arenas); it never
  // shrinks before reset(), so this is the peak.
  std::size_t memory_bytes() const {
    std::size_t b = 0;
    for (const Stripe& s : stripes_) b += s.table.memory_bytes();
    return b;
  }

  // Fold accounting, read after the map waves joined (each stripe's
  // counters have one writer while they run). bytes_emitted is every
  // emit's key+value payload, what a container without a fold would carry
  // into reduce; bytes_into_merge is what survived the fold.
  core::CombineStats stats() const {
    core::CombineStats st;
    for (const Stripe& s : stripes_) {
      st.emits += s.emits;
      st.bytes_emitted += s.bytes_emitted;
      s.table.for_each([&](std::string_view key, const value_type& v) {
        st.bytes_into_merge += key.size() + value_payload_bytes(v);
      });
    }
    st.keys_folded = st.emits - raw_entries();
    st.table_bytes = memory_bytes();
    return st;
  }

  // Reduce-side: merges partition `part` of `num_parts` across all stripes
  // into owned (key, accumulator) pairs, folding under each slot's stored
  // hash. Each partition is disjoint, so concurrent calls with distinct
  // `part` are safe.
  std::vector<std::pair<std::string, value_type>> reduce_partition(
      std::size_t part, std::size_t num_parts) const {
    ArenaHashMap<value_type> merged(256);
    for (const Stripe& stripe : stripes_) {
      stripe.table.for_each_in_partition(
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
  // One map thread's table and fold counters. emit() writes the counters on
  // every call, so each stripe owns whole cache lines: stripes packed back
  // to back would share lines between map threads.
  struct alignas(64) Stripe {
    explicit Stripe(std::size_t capacity_hint) : table(capacity_hint) {}
    ArenaHashMap<value_type> table;
    std::uint64_t emits = 0;
    std::uint64_t bytes_emitted = 0;
  };
  static_assert(alignof(Stripe) == 64,
                "each map thread's stripe must own whole cache lines");

  std::vector<Stripe> stripes_;
  bool initialized_ = false;
};

}  // namespace supmr::containers
