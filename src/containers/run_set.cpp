#include "containers/run_set.hpp"

#include <cstdio>
#include <cstring>
#include <functional>

#include "merge/loser_tree.hpp"
#include "obs/macros.hpp"
#include "storage/spill_file.hpp"

namespace supmr::containers {

namespace {

// Run record layout: [u32 key_len][key bytes][u64 count].
constexpr std::size_t kHeaderBytes = sizeof(std::uint32_t);
constexpr std::size_t kCountBytes = sizeof(std::uint64_t);

// A run cursor (merge/loser_tree.hpp) over one sorted run: a run file read
// through a buffer, or the in-memory live results.
class RunCursor {
 public:
  Status open(const std::string& path) {
    file_ = std::fopen(path.c_str(), "rb");
    if (file_ == nullptr) {
      return Status::IoError("cannot reopen spill run " + path);
    }
    buf_.resize(RunSet::kReadBytes);
    return advance();
  }

  void open_memory(const std::vector<RunSet::Pair>& pairs) {
    mem_ = &pairs;
    done_ = pairs.empty();
  }

  ~RunCursor() {
    if (file_ != nullptr) std::fclose(file_);
  }

  RunCursor() = default;
  RunCursor(const RunCursor&) = delete;
  RunCursor& operator=(const RunCursor&) = delete;

  bool done() const { return done_; }
  std::string_view head() const {
    return file_ != nullptr ? std::string_view(key_)
                            : std::string_view((*mem_)[mem_pos_].first);
  }
  std::uint64_t count() const {
    return file_ != nullptr ? count_ : (*mem_)[mem_pos_].second;
  }

  Status advance() {
    if (file_ == nullptr) {
      done_ = ++mem_pos_ >= mem_->size();
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
  const std::vector<RunSet::Pair>* mem_ = nullptr;
  std::size_t mem_pos_ = 0;
  bool done_ = false;
};

}  // namespace

Status RunSet::write(const std::vector<Pair>& sorted) {
  SUPMR_TRACE_SCOPE_VAR(span, "container", "spill.run");
  SUPMR_TRACE_SET_ARG(span, "pairs", sorted.size());
  SUPMR_COUNTER_ADD("spill.runs", 1);

  std::uint64_t written = 0;
  SUPMR_ASSIGN_OR_RETURN(
      std::string path,
      storage::write_spill_file(dir_, "supmr-agg", [&](std::FILE* f) {
        for (const auto& [key, count] : sorted) {
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
  paths_.push_back(std::move(path));
  return Status::Ok();
}

StatusOr<std::vector<RunSet::Pair>> RunSet::fold(std::vector<Pair> live) {
  std::vector<RunCursor> cursors(paths_.size() + 1);
  for (std::size_t r = 0; r < paths_.size(); ++r) {
    SUPMR_RETURN_IF_ERROR(cursors[r].open(paths_[r]));
  }
  cursors.back().open_memory(live);

  // Equal keys leave the tree back to back and fold into one total.
  merge::LoserTree<std::string_view, std::less<std::string_view>, RunCursor>
      tree(std::move(cursors), std::less<std::string_view>{});
  std::vector<Pair> out;
  out.reserve(live.size());
  std::string key;  // copy: advancing invalidates the head's view
  while (!tree.empty()) {
    key.assign(tree.top().head());
    std::uint64_t total = 0;
    while (!tree.empty() && tree.top().head() == key) {
      total += tree.top().count();
      SUPMR_RETURN_IF_ERROR(tree.advance());
    }
    out.emplace_back(key, total);
  }
  clear();
  return out;
}

void RunSet::clear() {
  for (const auto& path : paths_) std::remove(path.c_str());
  paths_.clear();
}

}  // namespace supmr::containers
