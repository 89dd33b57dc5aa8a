#include "apps/tera_sort.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>

#include "core/replay.hpp"
#include "merge/pairwise.hpp"
#include "merge/partitioned.hpp"
#include "merge/pway.hpp"
#include "merge/sample_sort.hpp"

namespace supmr::apps {
namespace {

// What the merge sorts instead of the records (docs/merge.md §6): the first
// min(8, key_bytes) key bytes as a big-endian integer, zero-padded, so
// integer order is memcmp order over those bytes, plus the record itself.
// No member initializers: arrays of entries are allocated for overwrite.
struct KeyEntry {
  std::uint64_t prefix;
  const char* record;
};

std::uint64_t key_prefix(const char* record, std::size_t prefix_bytes) {
  unsigned char bytes[8] = {};
  std::memcpy(bytes, record, prefix_bytes);
  std::uint64_t prefix = 0;
  for (const unsigned char b : bytes) prefix = prefix << 8 | b;
  return prefix;
}

// Runs fn(records, first, count) over `spans` (whole `record_bytes`
// records each) cut into pieces of at most ceil(total / parts) records,
// one pool task per piece. `first` numbers the piece's first record across
// all spans, in order. False if the pool dropped the wave.
template <typename Fn>
bool for_each_piece(ThreadPool& pool,
                    const std::vector<std::span<const char>>& spans,
                    std::uint64_t record_bytes, std::size_t parts, Fn fn) {
  std::uint64_t total = 0;
  for (const auto& s : spans) total += s.size() / record_bytes;
  parts = std::max<std::size_t>(1, parts);
  const std::uint64_t per =
      std::max<std::uint64_t>(1, (total + parts - 1) / parts);
  std::vector<std::function<void(std::size_t)>> tasks;
  std::uint64_t first = 0;
  for (const auto& s : spans) {
    const std::uint64_t records = s.size() / record_bytes;
    for (std::uint64_t r = 0; r < records; r += per) {
      const char* bytes = s.data() + r * record_bytes;
      const std::uint64_t count = std::min(per, records - r);
      tasks.push_back([&fn, bytes, start = first + r, count](std::size_t) {
        fn(bytes, start, count);
      });
    }
    first += records;
  }
  return pool.run_wave(tasks);
}

// core::check_sort_geometry over the options, naming this app.
Status check_options(const TeraSortOptions& options) {
  const Status geometry = core::check_sort_geometry(
      options.key_bytes, options.record_bytes, "key_bytes", "record_bytes");
  if (geometry.ok()) return geometry;
  return Status::InvalidArgument("terasort: " + geometry.message());
}

}  // namespace

TeraSortApp::TeraSortApp(TeraSortOptions options)
    : options_(options), geometry_(check_options(options)) {}

void TeraSortApp::init(std::size_t num_map_threads) {
  num_mappers_ = num_map_threads;
  checksum_ = 0;
  malformed_ = 0;
  sorted_.reset();
  sorted_records_ = 0;
  if (!geometry_.ok()) return;  // prepare_round, reduce and merge report it
  if (partitioned()) {
    pcontainer_.init(options_.record_bytes, options_.key_bytes,
                     options_.partitions, num_map_threads);
  } else {
    container_.init(options_.record_bytes);
  }
}

Status TeraSortApp::prepare_round(const ingest::IngestChunk& chunk) {
  SUPMR_RETURN_IF_ERROR(geometry_);
  const std::uint64_t rb = options_.record_bytes;
  const std::span<const char> bytes = chunk.bytes();
  if (bytes.size() % rb != 0) {
    return Status::InvalidArgument(
        "chunk size " + std::to_string(bytes.size()) +
        " is not a whole number of " + std::to_string(rb) + "-byte records");
  }
  const std::uint64_t records = bytes.size() / rb;
  round_src_ = bytes.data();
  round_dst_ = nullptr;
  tasks_ = split_records(records, map_slices(num_mappers_));
  if (records == 0) return Status::Ok();
  if (partitioned()) {
    // Splitters come from the first non-empty chunk (sample-sort style);
    // later chunks route through the same cuts, so partitions stay
    // key-coherent across the whole ingest stream.
    if (pcontainer_.num_splitters() == 0) pcontainer_.sample_splitters(bytes);
  } else {
    // One claim for the whole round, contiguous in one segment; each slice
    // then fills a disjoint part of it.
    round_dst_ = container_.mutable_record(container_.claim(records));
  }
  return Status::Ok();
}

void TeraSortApp::map_task(std::size_t task, std::size_t thread_id) {
  // Flat container: the claimed slot range is the isolation. Partitioned
  // container: the (partition, thread_id) stripe is — tasks on one
  // thread_id never overlap (application.hpp).
  assert(task < tasks_.size());
  const RecordSlice& t = tasks_[task];
  const std::uint64_t rb = options_.record_bytes;
  const char* src = round_src_ + t.first * rb;
  std::uint64_t bad = 0;
  for (std::uint64_t r = 0; r < t.count; ++r) {
    const char* rec = src + r * rb;
    if (options_.validate_terminators &&
        (rec[rb - 2] != '\r' || rec[rb - 1] != '\n')) {
      ++bad;
    }
    if (partitioned()) {
      pcontainer_.append(thread_id, std::span<const char>(rec, rb));
    } else {
      std::memcpy(round_dst_ + (t.first + r) * rb, rec, rb);
    }
  }
  if (bad > 0) malformed_.fetch_add(bad, std::memory_order_relaxed);
}

std::vector<std::span<const char>> TeraSortApp::record_spans() const {
  if (!partitioned()) return container_.segments();
  std::vector<std::span<const char>> spans;
  for (std::size_t p = 0; p < pcontainer_.partitions(); ++p) {
    for (std::size_t t = 0; t < pcontainer_.threads(); ++t)
      spans.push_back(pcontainer_.stripe(p, t));
  }
  return spans;
}

Status TeraSortApp::reduce(ThreadPool& pool, std::size_t num_partitions) {
  SUPMR_RETURN_IF_ERROR(geometry_);
  // Sort's reduce touches every key once (identity coalescing with unique
  // keys): we fold the first 8 key bytes of every record into an
  // order-invariant checksum, partitioned across the pool.
  const std::uint64_t rb = options_.record_bytes;
  const std::size_t key8 = std::min<std::size_t>(8, options_.key_bytes);
  std::atomic<std::uint64_t> checksum{0};
  if (!for_each_piece(pool, record_spans(), rb, num_partitions,
                      [&](const char* records, std::uint64_t,
                          std::uint64_t count) {
                        std::uint64_t sum = 0;
                        for (std::uint64_t r = 0; r < count; ++r) {
                          std::uint64_t k = 0;
                          std::memcpy(&k, records + r * rb, key8);
                          sum += k;
                        }
                        checksum.fetch_add(sum, std::memory_order_relaxed);
                      }))
    return Status::Internal("reduce wave dropped: thread pool shut down");
  checksum_ = checksum.load(std::memory_order_relaxed);
  return Status::Ok();
}

Status TeraSortApp::merge(ThreadPool& pool, const core::MergePlan& plan,
                          merge::MergeStats* stats) {
  SUPMR_RETURN_IF_ERROR(geometry_);
  const std::uint64_t rb = options_.record_bytes;
  const std::uint32_t kb = options_.key_bytes;
  const std::size_t prefix_bytes = std::min<std::uint32_t>(8, kb);
  // memcmp(key_bytes) order: the prefixes decide unless they tie, and only
  // then are key bytes 8 onwards compared.
  auto cmp = [kb](const KeyEntry& a, const KeyEntry& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return kb > 8 && std::memcmp(a.record + 8, b.record + 8, kb - 8) < 0;
  };

  // One entry per record, built in parallel in record_spans() order.
  const std::vector<std::span<const char>> spans = record_spans();
  std::uint64_t n = 0;
  for (const auto& s : spans) n += s.size() / rb;
  auto entries = std::make_unique_for_overwrite<KeyEntry[]>(n);
  if (!for_each_piece(pool, spans, rb, pool.size(),
                      [&](const char* records, std::uint64_t first,
                          std::uint64_t count) {
                        for (std::uint64_t r = 0; r < count; ++r) {
                          const char* rec = records + r * rb;
                          entries[first + r] =
                              KeyEntry{key_prefix(rec, prefix_bytes), rec};
                        }
                      }))
    return Status::Internal("merge wave dropped: thread pool shut down");

  merge::MergeStats local;
  const std::span<KeyEntry> all(entries.get(), n);
  std::unique_ptr<KeyEntry[]> merged;
  const KeyEntry* order = entries.get();
  if (partitioned()) {
    // The shuffle already happened at map time: partition p's stripes hold
    // exactly p's key range, and each stripe's entries are one run of p.
    // Merge = one sort + loser-tree merge per partition (merge/partitioned.hpp
    // waves) — no global round.
    std::vector<std::vector<std::span<KeyEntry>>> partitions(
        pcontainer_.partitions());
    std::uint64_t first = 0;
    for (std::size_t s = 0; s < spans.size(); ++s) {
      const std::uint64_t count = spans[s].size() / rb;
      if (count > 0) {
        partitions[s / pcontainer_.threads()].push_back(
            all.subspan(first, count));
      }
      first += count;
    }
    merged = std::make_unique_for_overwrite<KeyEntry[]>(n);
    local = merge::partitioned_merge(pool, std::move(partitions),
                                     merged.get(), cmp);
    order = merged.get();
    entries.reset();  // the runs are merged; free them before the gather
  } else {
    const std::size_t num_runs = std::max<std::size_t>(2, pool.size() * 2);
    if (plan.mode == core::MergeMode::kPartitioned) {
      // Flat container but a partitioned plan: bucket the entries by
      // sampled splitters at merge time (merge-time fallback — map-time
      // sharding needs options.partitions > 0).
      local = merge::partitioned_sort(pool, all, cmp, plan.partitions);
    } else if (plan.mode == core::MergeMode::kPWay) {
      local = merge::parallel_sample_sort(pool, all, cmp, num_runs);
    } else {
      local = merge::pairwise_merge_sort(pool, all, cmp, num_runs);
    }
  }

  // Gather the records in entry order, in parallel, into storage the
  // copies are the first to touch.
  sorted_ = std::make_unique_for_overwrite<char[]>(n * rb);
  if (!parallel_for(pool, n, [&](std::size_t first, std::size_t last,
                                 std::size_t) {
        for (std::size_t i = first; i < last; ++i) {
          std::memcpy(sorted_.get() + i * rb, order[i].record, rb);
        }
      }))
    return Status::Internal("merge wave dropped: thread pool shut down");
  sorted_records_ = n;
  // The records now live in sorted_; free the container's copy rather than
  // hold both until the app is destroyed.
  container_.reset();
  pcontainer_.reset();

  if (stats != nullptr) *stats = std::move(local);
  return Status::Ok();
}

std::string TeraSortApp::canonical_output() const {
  // The sort contract fixes the KEY order but leaves ties between
  // equal-key records unspecified (stability is not promised). Normalize
  // only within each run of adjacent equal keys — sorting those records by
  // their full bytes — so two correct runs encode identically while a
  // globally mis-ordered output (wrong comparator, wrong routing) still
  // differs: a misplaced record changes which records are adjacent.
  const std::size_t rb = options_.record_bytes;
  const std::size_t kb = options_.key_bytes;
  const char* sorted = sorted_.get();
  const std::size_t n = sorted_records_;
  std::string out;
  out.reserve(n * rb);
  std::vector<const char*> run;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n &&
           std::memcmp(sorted + i * rb, sorted + j * rb, kb) == 0) {
      ++j;
    }
    run.clear();
    for (std::size_t r = i; r < j; ++r) run.push_back(sorted + r * rb);
    std::sort(run.begin(), run.end(), [rb](const char* a, const char* b) {
      return std::memcmp(a, b, rb) < 0;
    });
    for (const char* rec : run) out.append(rec, rb);
    i = j;
  }
  return out;
}

}  // namespace supmr::apps
