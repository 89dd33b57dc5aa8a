// In-mapper combining container (ROADMAP item 2, Phoenix++'s core insight).
//
// Folds duplicate keys at emit time: one open-addressing hash-aggregate per
// map thread, applying the app-declared associative combine() on every
// map_emit so wordcount-style workloads never push duplicate keys into the
// reduce/merge phases. The in-node combiner paper (PAPERS.md) measures this
// as the single biggest lever for high-duplication workloads — the
// intermediate volume drops by the key-duplication factor before it ever
// touches shuffle bandwidth, which is exactly the resource the SupMR paper
// says saturates first.
//
// Differences from HashContainer (the Phoenix++ default this specializes):
//   * Short keys (<= kInlineKeyBytes) are stored inline in the slot, so the
//     hot fold path — hash, probe, compare, combine — touches one cache line
//     instead of chasing an arena pointer per probe. Word count keys are
//     almost always inline.
//   * Every stripe tracks fold effectiveness (emits, bytes emitted, bytes
//     surviving into merge) with single-writer counters, surfaced through
//     stats() as core::CombineStats and via the container.* obs metrics.
//
// Same persistence contract as HashContainer: init() is idempotent across
// ingest rounds, a thread-count change without reset() is a logic_error,
// and reduce_partition(part, num_parts) is safe to call concurrently for
// distinct partitions (hash-stable across growth).
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "containers/arena_hash_map.hpp"
#include "containers/hash.hpp"
#include "containers/hash_container.hpp"
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
class CombiningContainer {
 public:
  using value_type = typename Combiner::value_type;

  // Keys at most this long live inside the slot itself. 12 keeps the whole
  // slot at 32 bytes for 8-byte values — the same density as ArenaHashMap's
  // slot array, but with the key bytes on the slot's own cache line.
  static constexpr std::size_t kInlineKeyBytes = 12;

  // One stripe per map thread; idempotent across rounds, logic_error on a
  // thread-count change (same contract as HashContainer::init).
  void init(std::size_t num_map_threads, std::size_t capacity_hint = 1024) {
    if (initialized_) {
      if (stripes_.size() != num_map_threads)
        throw std::logic_error(
            "CombiningContainer::init: map thread count changed across "
            "rounds (" +
            std::to_string(stripes_.size()) + " -> " +
            std::to_string(num_map_threads) + "); reset() first");
      return;
    }
    stripes_.clear();
    stripes_.resize(num_map_threads);
    for (Stripe& s : stripes_) s.reserve(capacity_hint);
    initialized_ = true;
  }

  bool initialized() const { return initialized_; }

  void reset() {
    stripes_.clear();
    initialized_ = false;
  }

  // The fold: find-or-insert in the calling thread's stripe, then combine.
  // An emit that lands on an existing key is "folded" — it costs a table
  // probe instead of an intermediate record.
  // `h` must be hash_bytes(key).
  void emit(std::size_t thread_id, std::string_view key, std::uint64_t h,
            const auto& mapped_value) {
    assert(thread_id < stripes_.size());
    Stripe& s = stripes_[thread_id];
    ++s.emits;
    s.bytes_emitted += key.size() + value_payload_bytes(mapped_value);
    value_type& acc = s.find_or_insert(key, h, Combiner::identity());
    Combiner::combine(acc, mapped_value);
  }
  void emit(std::size_t thread_id, std::string_view key,
            const auto& mapped_value) {
    emit(thread_id, key, hash_bytes(key), mapped_value);
  }

  std::size_t num_stripes() const { return stripes_.size(); }

  // Surviving accumulators across stripes (a key present in two stripes
  // counts twice; reduce de-duplicates).
  std::size_t raw_entries() const {
    std::size_t n = 0;
    for (const Stripe& s : stripes_) n += s.size;
    return n;
  }

  // Cross-thread merge of partition `part`: Combiner::merge over the
  // stripes' surviving accumulators, partitioned by hash_partition like
  // ArenaHashMap so partitions stay stable, and folded under each slot's
  // stored hash. Disjoint partitions may run concurrently.
  std::vector<std::pair<std::string, value_type>> reduce_partition(
      std::size_t part, std::size_t num_parts) const {
    ArenaHashMap<value_type> merged(256);
    for (const Stripe& stripe : stripes_) {
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

  // --- fold-effectiveness accounting (single-writer per stripe during the
  // map phase; read only after the map waves joined) ---

  std::uint64_t emits() const {
    std::uint64_t n = 0;
    for (const Stripe& s : stripes_) n += s.emits;
    return n;
  }

  // Emits absorbed into an existing accumulator instead of becoming a new
  // intermediate record.
  std::uint64_t keys_folded() const { return emits() - raw_entries(); }

  // Intermediate volume a non-combining container would carry into merge:
  // every emit's key+value payload.
  std::uint64_t bytes_emitted() const {
    std::uint64_t b = 0;
    for (const Stripe& s : stripes_) b += s.bytes_emitted;
    return b;
  }

  // What actually survives the emit-time fold.
  std::uint64_t bytes_into_merge() const {
    std::uint64_t b = 0;
    for (const Stripe& s : stripes_) {
      s.for_each([&](std::string_view key, const value_type& v) {
        b += key.size() + value_payload_bytes(v);
      });
    }
    return b;
  }

  // Resident table footprint (slot arrays + long-key arenas) for lease
  // accounting; tables never shrink before reset(), so this is the peak.
  std::size_t memory_bytes() const {
    std::size_t b = 0;
    for (const Stripe& s : stripes_) b += s.memory_bytes();
    return b;
  }

  core::CombineStats stats() const {
    core::CombineStats s;
    s.emits = emits();
    s.keys_folded = keys_folded();
    s.bytes_emitted = bytes_emitted();
    s.bytes_into_merge = bytes_into_merge();
    s.table_bytes = memory_bytes();
    return s;
  }

 private:
  struct Slot {
    // key_len sentinel for an empty slot; real keys are far shorter.
    static constexpr std::uint32_t kEmpty = 0xffffffffu;
    std::uint64_t hash = 0;
    std::uint32_t key_len = kEmpty;
    // Inline key bytes, or (for keys longer than kInlineKeyBytes) a
    // memcpy'd u64 offset into the stripe's long_keys buffer. A plain byte
    // array instead of a union keeps the slot unpadded: 8 + 4 + 12 + value.
    char key[kInlineKeyBytes] = {};
    value_type value{};

    std::uint64_t long_offset() const {
      std::uint64_t off;
      std::memcpy(&off, key, sizeof(off));
      return off;
    }
    void set_long_offset(std::uint64_t off) {
      std::memcpy(key, &off, sizeof(off));
    }
  };
  // The probe loop is memory-bound: for 8-byte values the slot must stay at
  // 32 bytes (two per cache line), matching ArenaHashMap's density.
  static_assert(sizeof(value_type) != 8 || sizeof(Slot) == 32,
                "Slot layout regressed past 32 bytes for 8-byte values");

  // One map thread's table. Linear probing over a power-of-two slot array,
  // growing at 70% load (same policy as ArenaHashMap); keys longer than the
  // inline capacity spill to an append-only buffer. Each stripe owns whole
  // cache lines: emit() writes `emits` and `bytes_emitted` on every call, and
  // stripes packed back to back in stripes_ would share lines between map
  // threads.
  struct alignas(64) Stripe {
    std::vector<Slot> slots;
    std::string long_keys;
    std::size_t size = 0;
    std::uint64_t emits = 0;
    std::uint64_t bytes_emitted = 0;

    void reserve(std::size_t capacity_hint) {
      std::size_t cap = 16;
      while (cap < capacity_hint * 2) cap <<= 1;
      slots.resize(cap);
    }

    std::string_view key_of(const Slot& slot) const {
      return slot.key_len <= kInlineKeyBytes
                 ? std::string_view(slot.key, slot.key_len)
                 : std::string_view(long_keys.data() + slot.long_offset(),
                                    slot.key_len);
    }

    std::size_t probe(std::string_view key, std::uint64_t h) const {
      const std::size_t mask = slots.size() - 1;
      std::size_t idx = h & mask;
      while (slots[idx].key_len != Slot::kEmpty &&
             (slots[idx].hash != h || key_of(slots[idx]) != key)) {
        idx = (idx + 1) & mask;
      }
      return idx;
    }

    value_type& find_or_insert(std::string_view key, std::uint64_t h,
                               const value_type& init) {
      assert(h == hash_bytes(key));
      if ((size + 1) * 10 >= slots.size() * 7) grow();
      Slot& slot = slots[probe(key, h)];
      if (slot.key_len == Slot::kEmpty) {
        slot.hash = h;
        slot.key_len = static_cast<std::uint32_t>(key.size());
        if (key.size() <= kInlineKeyBytes) {
          std::memcpy(slot.key, key.data(), key.size());
        } else {
          slot.set_long_offset(long_keys.size());
          long_keys.append(key.data(), key.size());
        }
        slot.value = init;
        ++size;
      }
      return slot.value;
    }

    void grow() {
      std::vector<Slot> old;
      old.swap(slots);
      slots.resize(old.size() * 2);
      const std::size_t mask = slots.size() - 1;
      for (Slot& slot : old) {
        if (slot.key_len == Slot::kEmpty) continue;
        std::size_t idx = slot.hash & mask;
        while (slots[idx].key_len != Slot::kEmpty) idx = (idx + 1) & mask;
        slots[idx] = std::move(slot);
      }
    }

    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (const Slot& slot : slots) {
        if (slot.key_len != Slot::kEmpty) fn(key_of(slot), slot.value);
      }
    }

    template <typename Fn>
    void for_each_in_partition(std::size_t part, std::size_t num_parts,
                               Fn&& fn) const {
      assert(part < num_parts);
      for (const Slot& slot : slots) {
        if (slot.key_len != Slot::kEmpty &&
            hash_partition(slot.hash, num_parts) == part)
          fn(key_of(slot), slot.hash, slot.value);
      }
    }

    std::size_t memory_bytes() const {
      return slots.size() * sizeof(Slot) + long_keys.capacity();
    }
  };
  static_assert(alignof(Stripe) == 64,
                "each map thread's stripe must own whole cache lines");

  std::vector<Stripe> stripes_;
  bool initialized_ = false;
};

// The emit seam an app with a declared combiner routes through: its default
// HashContainer and the CombiningContainer side by side, with select()
// (called by Application::use_container before init) choosing which one the
// job fills. Everything downstream — reduce_partition's output shape,
// ordering guarantees — is identical between the two, so an app's reduce and
// merge code never branches.
template <typename Combiner>
class SwitchedContainer {
 public:
  using value_type = typename Combiner::value_type;

  // Must run before init(); switching a live container would strand emitted
  // pairs in the other table.
  void select(core::ContainerMode mode) {
    if (hash_.initialized() || combining_.initialized())
      throw std::logic_error(
          "SwitchedContainer::select: container already initialized; "
          "reset() first");
    mode_ = mode;
  }

  core::ContainerMode mode() const { return mode_; }

  void init(std::size_t num_map_threads, std::size_t capacity_hint = 1024) {
    if (combining())
      combining_.init(num_map_threads, capacity_hint);
    else
      hash_.init(num_map_threads, capacity_hint);
  }

  bool initialized() const {
    return combining() ? combining_.initialized() : hash_.initialized();
  }

  void reset() {
    hash_.reset();
    combining_.reset();
  }

  // `h` must be hash_bytes(key).
  void emit(std::size_t thread_id, std::string_view key, std::uint64_t h,
            const auto& mapped_value) {
    if (combining())
      combining_.emit(thread_id, key, h, mapped_value);
    else
      hash_.emit(thread_id, key, h, mapped_value);
  }
  void emit(std::size_t thread_id, std::string_view key,
            const auto& mapped_value) {
    emit(thread_id, key, hash_bytes(key), mapped_value);
  }

  std::vector<std::pair<std::string, value_type>> reduce_partition(
      std::size_t part, std::size_t num_parts) const {
    return combining() ? combining_.reduce_partition(part, num_parts)
                       : hash_.reduce_partition(part, num_parts);
  }

  std::size_t raw_entries() const {
    return combining() ? combining_.raw_entries() : hash_.raw_entries();
  }

  std::size_t memory_bytes() const {
    return combining() ? combining_.memory_bytes() : hash_.memory_bytes();
  }

  // All-zero in default mode: HashContainer does not track fold counters.
  core::CombineStats stats() const {
    return combining() ? combining_.stats() : core::CombineStats{};
  }

 private:
  bool combining() const { return mode_ == core::ContainerMode::kCombining; }

  core::ContainerMode mode_ = core::ContainerMode::kDefault;
  HashContainer<Combiner> hash_;
  CombiningContainer<Combiner> combining_;
};

}  // namespace supmr::containers
