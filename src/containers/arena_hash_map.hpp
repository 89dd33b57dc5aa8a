// Open-addressing hash map with arena-owned string keys.
//
// The per-thread building block of the hash container. Keys are copied into
// an append-only arena on first insert, so entries remain valid after the
// ingest chunk that produced them is recycled — the property the persistent
// container (paper §III.C) depends on. Linear probing over a power-of-two
// table; grows at 70% load.
//
// Not thread-safe by design: each map thread owns one map (Phoenix++'s
// thread-local containers), so the hot path takes no locks.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "containers/hash.hpp"

namespace supmr::containers {

template <typename V>
class ArenaHashMap {
 public:
  explicit ArenaHashMap(std::size_t capacity_hint = 16) {
    std::size_t cap = 16;
    while (cap < capacity_hint * 2) cap <<= 1;
    slots_.resize(cap);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }
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
  // it while lowercasing), so the key is not walked a second time.
  V& find_or_insert(std::string_view key, std::uint64_t h, const V& init) {
    assert(h == hash_bytes(key));
    if ((size_ + 1) * 10 >= slots_.size() * 7) grow();
    std::size_t idx = probe(key, h);
    Slot& slot = slots_[idx];
    if (!slot.used) {
      slot.used = true;
      slot.hash = h;
      slot.key_off = arena_.size();
      slot.key_len = key.size();
      arena_.append(key.data(), key.size());
      slot.value = init;
      ++size_;
    }
    return slot.value;
  }

  // Returns nullptr if absent.
  V* find(std::string_view key) {
    const std::uint64_t h = hash_bytes(key);
    const std::size_t idx = probe(key, h);
    return slots_[idx].used ? &slots_[idx].value : nullptr;
  }
  const V* find(std::string_view key) const {
    return const_cast<ArenaHashMap*>(this)->find(key);
  }

  // Iterates all entries: fn(key, value). Order is unspecified.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.used) fn(key_of(slot), slot.value);
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
      if (slot.used && hash_partition(slot.hash, num_parts) == part)
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
    std::uint64_t hash = 0;
    std::uint64_t key_off = 0;
    std::uint32_t key_len = 0;
    bool used = false;
    V value{};
  };

  std::string_view key_of(const Slot& slot) const {
    return std::string_view(arena_.data() + slot.key_off, slot.key_len);
  }

  std::size_t probe(std::string_view key, std::uint64_t h) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = h & mask;
    while (slots_[idx].used &&
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
      if (!slot.used) continue;
      std::size_t idx = slot.hash & mask;
      while (slots_[idx].used) idx = (idx + 1) & mask;
      slots_[idx] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::string arena_;
  std::size_t size_ = 0;
};

}  // namespace supmr::containers
