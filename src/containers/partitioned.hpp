// Partitioned intermediate container: key-range sharded storage filled
// per-map-thread without cross-thread locking.
//
// The ArrayContainer gives the paper's unlocked writes but keeps one global
// record array, which forces the merge phase into a single round over
// everything (paper Fig. 6's serial barrier). This container crosses that
// with Phoenix++'s per-thread stripes AND sample sort's splitter discipline:
// storage is a (partition, thread) grid of byte stripes, a record appended
// by thread t lands in stripe (partition_of(key), t), and no two threads
// ever touch the same stripe. After the map phase, partition p's stripes
// hold exactly the records whose keys fall in p's key range — so the merge
// phase (merge/partitioned.hpp) runs P independent per-partition merges and
// concatenates the outputs in key order.
//
// Splitters come from sample_splitters() (merge::select_splitters over an
// early batch's keys, sample-sort style) and records route through
// merge::partition_of, the same cut and router as every other partitioned
// path. With no splitters the container degrades to 1 partition =
// per-thread ArrayContainer stripes.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "merge/partitioned.hpp"

namespace supmr::containers {

class PartitionedContainer {
 public:
  // Idempotent across map rounds (persistence, paper §III.C). `partitions`
  // and `threads` are upper bounds fixed at init; key_bytes is the memcmp
  // prefix used for partitioning and must not exceed record_bytes.
  void init(std::uint64_t record_bytes, std::uint64_t key_bytes,
            std::size_t partitions, std::size_t threads) {
    if (initialized_) {
      if (record_bytes_ != record_bytes || key_bytes_ != key_bytes ||
          partitions_ != partitions || threads_ != threads)
        throw std::logic_error(
            "PartitionedContainer::init: geometry (record/key bytes, "
            "partitions, threads) changed across rounds; reset() first");
      return;
    }
    assert(partitions >= 1 && threads >= 1 && key_bytes <= record_bytes);
    record_bytes_ = record_bytes;
    key_bytes_ = key_bytes;
    partitions_ = partitions;
    threads_ = threads;
    stripes_.assign(partitions_ * threads_, {});
    splitters_.clear();
    initialized_ = true;
  }

  bool initialized() const { return initialized_; }
  std::uint64_t record_bytes() const { return record_bytes_; }
  std::uint64_t key_bytes() const { return key_bytes_; }
  std::size_t partitions() const { return partitions_; }
  std::size_t threads() const { return threads_; }

  void reset() {
    stripes_.clear();
    splitters_.clear();
    record_bytes_ = key_bytes_ = 0;
    partitions_ = threads_ = 0;
    initialized_ = false;
  }

  // Sample-sort-style splitter selection from an early record batch:
  // merge::select_splitters over the batch's key prefixes. Deterministic —
  // evenly spaced probes, no RNG — so replayed runs partition identically.
  void sample_splitters(std::span<const char> sample) {
    assert(initialized_ && sample.size() % record_bytes_ == 0);
    std::vector<std::string_view> keys(sample.size() / record_bytes_);
    for (std::size_t i = 0; i < keys.size(); ++i)
      keys[i] = std::string_view(sample.data() + i * record_bytes_, key_bytes_);
    const std::vector<std::string_view> cuts = merge::select_splitters(
        std::span<const std::string_view>(keys), partitions_,
        std::less<std::string_view>{});
    splitters_.assign(cuts.begin(), cuts.end());
  }

  std::size_t num_splitters() const { return splitters_.size(); }
  std::span<const char> splitter(std::size_t i) const {
    assert(i < num_splitters());
    return std::span<const char>(splitters_[i].data(), key_bytes_);
  }

  // Partition for `key` (>= key_bytes readable): merge::partition_of over
  // the key prefix, so equal keys always share a partition and partition
  // p's keys all sort strictly before partition p+1's.
  std::size_t partition_of(const char* key) const {
    return merge::partition_of(splitters_, std::string_view(key, key_bytes_),
                               std::less<std::string_view>{});
  }

  // Appends one record from mapper thread `thread`. Lock-free by layout:
  // (partition, thread) stripes are owned by exactly one thread, so
  // concurrent appends from distinct threads never alias. NOT safe to call
  // concurrently with sample_splitters (routing changes between waves
  // only).
  void append(std::size_t thread, std::span<const char> record) {
    assert(initialized_ && thread < threads_);
    assert(record.size() == record_bytes_);
    std::vector<char>& s = stripe_mut(partition_of(record.data()), thread);
    s.insert(s.end(), record.begin(), record.end());
  }

  // Raw stripe bytes for (partition, thread) — consumed by the merge phase.
  std::span<const char> stripe(std::size_t partition,
                               std::size_t thread) const {
    assert(partition < partitions_ && thread < threads_);
    const std::vector<char>& s = stripes_[partition * threads_ + thread];
    return std::span<const char>(s.data(), s.size());
  }
  std::span<char> stripe_span(std::size_t partition, std::size_t thread) {
    assert(partition < partitions_ && thread < threads_);
    std::vector<char>& s = stripes_[partition * threads_ + thread];
    return std::span<char>(s.data(), s.size());
  }

  std::uint64_t partition_bytes(std::size_t partition) const {
    assert(partition < partitions_);
    std::uint64_t bytes = 0;
    for (std::size_t t = 0; t < threads_; ++t)
      bytes += stripes_[partition * threads_ + t].size();
    return bytes;
  }
  std::uint64_t partition_records(std::size_t partition) const {
    return partition_bytes(partition) / record_bytes_;
  }
  std::uint64_t total_records() const {
    std::uint64_t bytes = 0;
    for (const auto& s : stripes_) bytes += s.size();
    return bytes / record_bytes_;
  }

 private:
  std::vector<char>& stripe_mut(std::size_t partition, std::size_t thread) {
    return stripes_[partition * threads_ + thread];
  }

  std::vector<std::vector<char>> stripes_;  // [partition * threads_ + thread]
  std::vector<std::string> splitters_;      // key_bytes_ each, increasing
  std::uint64_t record_bytes_ = 0;
  std::uint64_t key_bytes_ = 0;
  std::size_t partitions_ = 0;
  std::size_t threads_ = 0;
  bool initialized_ = false;
};

}  // namespace supmr::containers
