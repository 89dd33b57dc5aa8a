#include "merge/external_sorter.hpp"

#include <cassert>
#include <chrono>
#include <cstring>

#include "merge/loser_tree.hpp"
#include "merge/sample_sort.hpp"
#include "obs/macros.hpp"
#include "storage/file_device.hpp"
#include "storage/spill_file.hpp"

namespace supmr::merge {

namespace {

// A sequential cursor over one sorted run: either a spill device (positional
// reads in slabs through the Device seam) or the in-memory residue.
class RunCursor {
 public:
  Status open_device(std::shared_ptr<const storage::Device> device,
                     std::uint32_t record_bytes, std::uint64_t slab_bytes) {
    rb_ = record_bytes;
    device_ = std::move(device);
    // Slab holds whole records.
    const std::uint64_t records =
        std::max<std::uint64_t>(1, slab_bytes / record_bytes);
    slab_.resize(records * record_bytes);
    return refill();
  }

  void open_memory(std::vector<char> data, std::uint32_t record_bytes) {
    rb_ = record_bytes;
    slab_ = std::move(data);
    slab_len_ = slab_.size();
    pos_ = 0;
    eof_ = true;
  }

  bool done() const { return pos_ >= slab_len_ && eof_; }
  const char* head() const { return slab_.data() + pos_; }

  Status advance() {
    pos_ += rb_;
    if (pos_ >= slab_len_ && !eof_) return refill();
    return Status::Ok();
  }

 private:
  Status refill() {
    if (device_ == nullptr) {
      eof_ = true;
      return Status::Ok();
    }
    const std::uint64_t remaining = device_->size() - offset_;
    const std::uint64_t want =
        std::min<std::uint64_t>(slab_.size(), remaining);
    if (want == 0) {
      slab_len_ = 0;
      pos_ = 0;
      eof_ = true;
      return Status::Ok();
    }
    auto n = device_->read_at(offset_,
                              std::span<char>(slab_.data(), want));
    if (!n.ok()) return n.status();
    if (*n == 0 || *n % rb_ != 0) {
      return Status::IoError("spill file truncated mid-record");
    }
    offset_ += *n;
    slab_len_ = *n;
    pos_ = 0;
    if (offset_ >= device_->size()) eof_ = true;
    return Status::Ok();
  }

  std::shared_ptr<const storage::Device> device_;
  std::uint64_t offset_ = 0;
  std::vector<char> slab_;
  std::size_t slab_len_ = 0;
  std::size_t pos_ = 0;
  std::uint32_t rb_ = 0;
  bool eof_ = false;
};

// Orders run heads (record pointers) by their first key_bytes bytes.
struct KeyLess {
  std::uint32_t key_bytes;
  bool operator()(const char* a, const char* b) const {
    return std::memcmp(a, b, key_bytes) < 0;
  }
};

}  // namespace

ExternalSorter::ExternalSorter(ThreadPool& pool,
                               ExternalSorterOptions options)
    : pool_(pool), options_(options) {
  assert(options_.record_bytes > 0 &&
         options_.key_bytes <= options_.record_bytes);
  // Budget must hold at least a handful of records.
  options_.memory_budget_bytes = std::max<std::uint64_t>(
      options_.memory_budget_bytes, 16ULL * options_.record_bytes);
  buffer_.reserve(options_.memory_budget_bytes);
}

ExternalSorter::~ExternalSorter() {
  for (const auto& path : spills_) std::remove(path.c_str());
}

Status ExternalSorter::add(std::span<const char> records) {
  if (finished_) return Status::FailedPrecondition("finish() already called");
  if (records.size() % options_.record_bytes != 0) {
    return Status::InvalidArgument("add() requires whole records");
  }
  std::size_t offset = 0;
  while (offset < records.size()) {
    const std::uint64_t room = options_.memory_budget_bytes - buffer_.size();
    const std::uint64_t take_records =
        std::min<std::uint64_t>(room / options_.record_bytes,
                                (records.size() - offset) /
                                    options_.record_bytes);
    const std::uint64_t take = take_records * options_.record_bytes;
    buffer_.insert(buffer_.end(), records.begin() + offset,
                   records.begin() + offset + take);
    buffered_records_ += take_records;
    records_added_ += take_records;
    offset += take;
    if (buffer_.size() + options_.record_bytes >
        options_.memory_budget_bytes) {
      SUPMR_RETURN_IF_ERROR(spill_buffer());
    }
  }
  return Status::Ok();
}

void ExternalSorter::sort_buffer(std::vector<std::uint64_t>& index) {
  index.resize(buffered_records_);
  for (std::uint64_t i = 0; i < buffered_records_; ++i) index[i] = i;
  const char* data = buffer_.data();
  const std::uint32_t rb = options_.record_bytes;
  const std::uint32_t kb = options_.key_bytes;
  auto cmp = [data, rb, kb](std::uint64_t a, std::uint64_t b) {
    return std::memcmp(data + a * rb, data + b * rb, kb) < 0;
  };
  parallel_sample_sort(pool_,
                       std::span<std::uint64_t>(index.data(), index.size()),
                       cmp);
}

Status ExternalSorter::spill_buffer() {
  if (buffered_records_ == 0) return Status::Ok();
  SUPMR_TRACE_SCOPE_VAR(span, "merge", "merge.spill");
  SUPMR_TRACE_SET_ARG(span, "records", buffered_records_);
  SUPMR_TRACE_SET_ARG2(span, "bytes", buffer_.size());
  SUPMR_COUNTER_ADD("merge.spills", 1);
  SUPMR_COUNTER_ADD("merge.spill_bytes", buffer_.size());
  std::vector<std::uint64_t> index;
  sort_buffer(index);

  const std::uint32_t rb = options_.record_bytes;
  std::vector<char> slab(std::max<std::uint64_t>(rb, 1 << 20) / rb * rb);
  SUPMR_ASSIGN_OR_RETURN(
      std::string path,
      storage::write_spill_file(
          options_.spill_dir, "supmr-spill", [&](std::FILE* f) {
            // Write permuted records through a staging slab.
            std::size_t fill = 0;
            for (std::uint64_t i = 0; i < buffered_records_; ++i) {
              std::memcpy(slab.data() + fill, buffer_.data() + index[i] * rb,
                          rb);
              fill += rb;
              if (fill == slab.size() || i + 1 == buffered_records_) {
                if (std::fwrite(slab.data(), 1, fill, f) != fill)
                  return false;
                fill = 0;
              }
            }
            return true;
          }));
  spills_.push_back(std::move(path));
  buffer_.clear();
  buffered_records_ = 0;
  return Status::Ok();
}

StatusOr<MergeStats> ExternalSorter::finish(const Sink& sink) {
  if (finished_) return Status::FailedPrecondition("finish() already called");
  finished_ = true;
  MergeStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t rb = options_.record_bytes;

  // In-memory residue becomes one pre-sorted run.
  std::vector<char> residue;
  if (buffered_records_ > 0) {
    std::vector<std::uint64_t> index;
    sort_buffer(index);
    residue.resize(buffered_records_ * rb);
    for (std::uint64_t i = 0; i < buffered_records_; ++i) {
      std::memcpy(residue.data() + i * rb, buffer_.data() + index[i] * rb,
                  rb);
    }
    buffer_.clear();
    buffered_records_ = 0;
  }

  if (spills_.empty() && residue.empty()) return stats;

  SUPMR_TRACE_SCOPE_VAR(span, "merge", "merge.external_merge");
  SUPMR_TRACE_SET_ARG(span, "runs", spills_.size() + (residue.empty() ? 0 : 1));
  SUPMR_TRACE_SET_ARG2(span, "records", records_added_);

  // One loser tree over every spill run plus the residue: peak memory is
  // merge_read_bytes per run.
  std::vector<RunCursor> runs(spills_.size() + (residue.empty() ? 0 : 1));
  for (std::size_t r = 0; r < spills_.size(); ++r) {
    std::shared_ptr<const storage::Device> dev;
    if (options_.open_spill) {
      SUPMR_ASSIGN_OR_RETURN(dev, options_.open_spill(spills_[r]));
    } else {
      SUPMR_ASSIGN_OR_RETURN(auto file, storage::FileDevice::open(spills_[r]));
      dev = std::move(file);
    }
    SUPMR_RETURN_IF_ERROR(
        runs[r].open_device(std::move(dev), rb, options_.merge_read_bytes));
  }
  if (!residue.empty()) runs.back().open_memory(std::move(residue), rb);

  LoserTree<const char*, KeyLess, RunCursor> tree(
      std::move(runs), KeyLess{options_.key_bytes});
  std::vector<char> out(std::max<std::uint64_t>(rb, 1 << 20) / rb * rb);
  std::uint64_t emitted = 0;
  std::size_t fill = 0;
  while (!tree.empty()) {
    std::memcpy(out.data() + fill, tree.top().head(), rb);
    fill += rb;
    ++emitted;
    SUPMR_RETURN_IF_ERROR(tree.advance());
    if (fill == out.size() || tree.empty()) {
      SUPMR_RETURN_IF_ERROR(sink(std::span<const char>(out.data(), fill)));
      fill = 0;
    }
  }
  if (emitted != records_added_) {
    return Status::Internal("external merge lost records: emitted " +
                            std::to_string(emitted) + " of " +
                            std::to_string(records_added_));
  }

  for (const auto& path : spills_) std::remove(path.c_str());
  spills_.clear();

  MergeStats::Round round;
  round.active_workers = 1;
  round.items_moved = emitted;
  round.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stats.rounds.push_back(round);
  return stats;
}

}  // namespace supmr::merge
