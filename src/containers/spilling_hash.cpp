#include "containers/spilling_hash.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "merge/introsort.hpp"
#include "merge/loser_tree.hpp"
#include "obs/macros.hpp"
#include "storage/spill_file.hpp"

namespace supmr::containers {

namespace {

// Spill record layout: [u32 key_len][key bytes][u64 count].
constexpr std::size_t kHeaderBytes = sizeof(std::uint32_t);
constexpr std::size_t kCountBytes = sizeof(std::uint64_t);

// A run cursor (merge/loser_tree.hpp) over one sorted run: a spill file
// read through a buffer, or the in-memory run of drained stripes.
class SpillCursor {
 public:
  Status open(const std::string& path, std::uint64_t read_bytes) {
    file_ = std::fopen(path.c_str(), "rb");
    if (file_ == nullptr) {
      return Status::IoError("cannot reopen spill run " + path);
    }
    buf_.resize(std::max<std::uint64_t>(read_bytes, 4096));
    return advance();
  }

  void open_memory(std::vector<std::pair<std::string, std::uint64_t>> pairs) {
    mem_ = std::move(pairs);
    done_ = mem_.empty();
  }

  ~SpillCursor() {
    if (file_ != nullptr) std::fclose(file_);
  }

  SpillCursor() = default;
  SpillCursor(const SpillCursor&) = delete;
  SpillCursor& operator=(const SpillCursor&) = delete;

  bool done() const { return done_; }
  std::string_view head() const {
    return file_ != nullptr ? std::string_view(key_)
                            : std::string_view(mem_[mem_pos_].first);
  }
  std::uint64_t count() const {
    return file_ != nullptr ? count_ : mem_[mem_pos_].second;
  }

  Status advance() {
    if (file_ == nullptr) {
      done_ = ++mem_pos_ >= mem_.size();
      return Status::Ok();
    }
    // File-backed: a clean end of run falls on a record boundary.
    if (!fill(kHeaderBytes)) {
      done_ = len_ == pos_;
      return done_ ? Status::Ok() : truncated();
    }
    std::uint32_t len = 0;
    std::memcpy(&len, buf_.data() + pos_, kHeaderBytes);
    if (!fill(kHeaderBytes + len + kCountBytes)) return truncated();
    key_.assign(buf_.data() + pos_ + kHeaderBytes, len);
    std::memcpy(&count_, buf_.data() + pos_ + kHeaderBytes + len,
                kCountBytes);
    pos_ += kHeaderBytes + len + kCountBytes;
    return Status::Ok();
  }

 private:
  static Status truncated() {
    return Status::IoError("spill run truncated mid-record");
  }

  // Refills from the file until `need` bytes sit at pos_; false if the run
  // ends first.
  bool fill(std::size_t need) {
    if (len_ - pos_ >= need) return true;
    std::memmove(buf_.data(), buf_.data() + pos_, len_ - pos_);
    len_ -= pos_;
    pos_ = 0;
    if (buf_.size() < need) buf_.resize(need);
    len_ += std::fread(buf_.data() + len_, 1, buf_.size() - len_, file_);
    return len_ >= need;
  }

  std::FILE* file_ = nullptr;
  std::vector<char> buf_;
  std::size_t pos_ = 0, len_ = 0;
  std::string key_;
  std::uint64_t count_ = 0;
  std::vector<std::pair<std::string, std::uint64_t>> mem_;
  std::size_t mem_pos_ = 0;
  bool done_ = false;
};

}  // namespace

SpillingHashContainer::~SpillingHashContainer() {
  for (const auto& path : spill_paths_) std::remove(path.c_str());
}

void SpillingHashContainer::init(std::size_t num_map_threads,
                                 Options options) {
  if (initialized_) {
    if (stripes_.size() != num_map_threads)
      throw std::logic_error(
          "SpillingHashContainer::init: map thread count changed across "
          "rounds; reset() first");
    return;
  }
  options_ = options;
  stripes_.clear();
  for (std::size_t i = 0; i < num_map_threads; ++i) stripes_.emplace_back(256);
  initialized_ = true;
}

std::uint64_t SpillingHashContainer::memory_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : stripes_) total += s.memory_bytes();
  return total;
}

std::vector<std::pair<std::string, std::uint64_t>>
SpillingHashContainer::drain_stripes() {
  // Merge duplicates across stripes through a staging map, then sort.
  ArenaHashMap<std::uint64_t> merged(1024);
  for (auto& stripe : stripes_) {
    stripe.for_each([&](std::string_view key, const std::uint64_t& v) {
      merged.find_or_insert(key, 0) += v;
    });
    stripe.clear();
  }
  std::vector<std::pair<std::string, std::uint64_t>> pairs;
  pairs.reserve(merged.size());
  merged.for_each([&](std::string_view key, const std::uint64_t& v) {
    pairs.emplace_back(std::string(key), v);
  });
  merge::introsort(pairs.begin(), pairs.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  return pairs;
}

Status SpillingHashContainer::spill() {
  SUPMR_TRACE_SCOPE_VAR(span, "container", "spill.run");
  auto pairs = drain_stripes();
  if (pairs.empty()) return Status::Ok();
  SUPMR_TRACE_SET_ARG(span, "pairs", pairs.size());
  SUPMR_COUNTER_ADD("spill.runs", 1);

  std::uint64_t written = 0;
  SUPMR_ASSIGN_OR_RETURN(
      std::string path,
      storage::write_spill_file(
          options_.spill_dir, "supmr-agg", [&](std::FILE* f) {
            for (const auto& [key, count] : pairs) {
              const std::uint32_t len = static_cast<std::uint32_t>(key.size());
              if (std::fwrite(&len, 1, kHeaderBytes, f) != kHeaderBytes ||
                  std::fwrite(key.data(), 1, len, f) != len ||
                  std::fwrite(&count, 1, kCountBytes, f) != kCountBytes) {
                return false;
              }
              written += kHeaderBytes + len + kCountBytes;
            }
            return true;
          }));
  SUPMR_COUNTER_ADD("spill.bytes", written);
  SUPMR_TRACE_SET_ARG2(span, "bytes", written);
  spill_paths_.push_back(std::move(path));
  return Status::Ok();
}

Status SpillingHashContainer::maybe_spill() {
  if (memory_bytes() <= options_.memory_budget_bytes) return Status::Ok();
  return spill();
}

Status SpillingHashContainer::merge_reduce(
    const std::function<void(std::string_view, std::uint64_t)>& fn) {
  std::vector<SpillCursor> cursors(spill_paths_.size() + 1);
  for (std::size_t r = 0; r < spill_paths_.size(); ++r) {
    SUPMR_RETURN_IF_ERROR(
        cursors[r].open(spill_paths_[r], options_.merge_read_bytes));
  }
  cursors.back().open_memory(drain_stripes());

  // K-way combining merge: equal keys leave the tree back to back and fold
  // into one total.
  merge::LoserTree<std::string_view, std::less<std::string_view>, SpillCursor>
      tree(std::move(cursors), std::less<std::string_view>{});
  std::string key;  // copy: advancing invalidates the head's view
  while (!tree.empty()) {
    key.assign(tree.top().head());
    std::uint64_t total = 0;
    while (!tree.empty() && tree.top().head() == key) {
      total += tree.top().count();
      SUPMR_RETURN_IF_ERROR(tree.advance());
    }
    fn(key, total);
  }

  for (const auto& path : spill_paths_) std::remove(path.c_str());
  spill_paths_.clear();
  return Status::Ok();
}

}  // namespace supmr::containers
