// Open-addressing hash map with owned string keys: the one fold-on-insert
// table.
//
// The per-thread building block of the hash container, and the table its
// reduce folds a partition into. Keys are copied on first insert, so entries
// remain valid after the ingest chunk that produced them is recycled — the
// property the persistent container (paper §III.C) depends on. Keys of at
// most kInlineKeyBytes live inside the slot itself, so the hot fold path —
// hash, probe, compare, combine — touches one cache line; longer keys go to
// an append-only arena and the slot's key bytes hold their offset. Linear
// probing over a power-of-two table; grows at 70% load.
//
// Not thread-safe by design: each map thread owns one map (Phoenix++'s
// thread-local containers), so the hot path takes no locks.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "containers/hash.hpp"

namespace supmr::containers {

template <typename V>
class ArenaHashMap {
 public:
  // Keys at most this long live inside the slot. 12 keeps the whole slot at
  // 32 bytes for 8-byte values (two slots per cache line).
  static constexpr std::size_t kInlineKeyBytes = 12;

  explicit ArenaHashMap(std::size_t capacity_hint = 16) {
    std::size_t cap = 16;
    while (cap < capacity_hint * 2) cap <<= 1;
    slots_.resize(cap);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }
  // Bytes of the keys longer than kInlineKeyBytes.
  std::size_t arena_bytes() const { return arena_.size(); }

  // Approximate resident footprint: slot table + key arena.
  std::size_t memory_bytes() const {
    return slots_.size() * sizeof(Slot) + arena_.capacity();
  }

  // Returns the value slot for `key`, inserting `init` if absent.
  V& find_or_insert(std::string_view key, const V& init) {
    return find_or_insert(key, hash_bytes(key), init);
  }

  // The same with the caller's hash of `key` (the word tokenizer computes
  // it while lowercasing), so the key is not walked a second time. A hit
  // (the fold's common case) is only the probe, small enough to inline into
  // the caller's emit loop; a miss goes to insert().
  V& find_or_insert(std::string_view key, std::uint64_t h, const V& init) {
    assert(h == hash_bytes(key) && key.size() < Slot::kEmpty);
    Slot& slot = slots_[probe(key, h)];
    if (slot.key_len != Slot::kEmpty) return slot.value;
    return insert(slot, key, h, init);
  }

  // Returns nullptr if absent.
  V* find(std::string_view key) {
    Slot& slot = slots_[probe(key, hash_bytes(key))];
    return slot.key_len != Slot::kEmpty ? &slot.value : nullptr;
  }
  const V* find(std::string_view key) const {
    return const_cast<ArenaHashMap*>(this)->find(key);
  }

  // Iterates all entries: fn(key, value). Order is unspecified.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key_len != Slot::kEmpty) fn(key_of(slot), slot.value);
    }
  }

  // Iterates entries whose hash lands in reduce partition `part` of
  // `num_parts` (hash_partition): fn(key, hash, value). Partitioning by hash
  // (not bucket index) keeps the partition assignment stable across growth,
  // and passing the stored hash spares the reduce fold a second hash of the
  // key.
  template <typename Fn>
  void for_each_in_partition(std::size_t part, std::size_t num_parts,
                             Fn&& fn) const {
    assert(part < num_parts);
    for (const Slot& slot : slots_) {
      if (slot.key_len != Slot::kEmpty &&
          hash_partition(slot.hash, num_parts) == part)
        fn(key_of(slot), slot.hash, slot.value);
    }
  }

  void clear() {
    slots_.assign(slots_.size(), Slot{});
    arena_.clear();
    size_ = 0;
  }

 private:
  struct Slot {
    // key_len of an empty slot; find_or_insert asserts keys are shorter.
    static constexpr std::uint32_t kEmpty = 0xffffffffu;
    std::uint64_t hash = 0;
    std::uint32_t key_len = kEmpty;
    // The key itself, or for a longer key its memcpy'd u64 arena offset. A
    // byte array rather than a union keeps the slot unpadded.
    char key[kInlineKeyBytes] = {};
    V value{};
  };
  // The probe loop is memory-bound: two slots per cache line for 8-byte
  // values.
  static_assert(sizeof(V) != 8 || sizeof(Slot) == 32,
                "slot grew past 32 bytes for 8-byte values");

  std::string_view key_of(const Slot& slot) const {
    if (slot.key_len <= kInlineKeyBytes)
      return std::string_view(slot.key, slot.key_len);
    std::uint64_t off;
    std::memcpy(&off, slot.key, sizeof(off));
    return std::string_view(arena_.data() + off, slot.key_len);
  }

  // Fills the empty slot `slot` that probe(key, h) found, growing first
  // (and probing again) when the insert would take the load past 70%.
  V& insert(Slot& slot, std::string_view key, std::uint64_t h,
            const V& init) {
    if ((size_ + 1) * 10 >= slots_.size() * 7) {
      grow();
      return insert(slots_[probe(key, h)], key, h, init);
    }
    slot.hash = h;
    slot.key_len = static_cast<std::uint32_t>(key.size());
    if (key.size() <= kInlineKeyBytes) {
      std::memcpy(slot.key, key.data(), key.size());
    } else {
      const std::uint64_t off = arena_.size();
      std::memcpy(slot.key, &off, sizeof(off));
      arena_.append(key.data(), key.size());
    }
    slot.value = init;
    ++size_;
    return slot.value;
  }

  std::size_t probe(std::string_view key, std::uint64_t h) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = h & mask;
    while (slots_[idx].key_len != Slot::kEmpty &&
           (slots_[idx].hash != h || key_of(slots_[idx]) != key)) {
      idx = (idx + 1) & mask;
    }
    return idx;
  }

  void grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(old.size() * 2);
    const std::size_t mask = slots_.size() - 1;
    for (Slot& slot : old) {
      if (slot.key_len == Slot::kEmpty) continue;
      std::size_t idx = slot.hash & mask;
      while (slots_[idx].key_len != Slot::kEmpty) idx = (idx + 1) & mask;
      slots_[idx] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::string arena_;  // keys longer than kInlineKeyBytes, back to back
  std::size_t size_ = 0;
};

}  // namespace supmr::containers
