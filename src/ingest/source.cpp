#include "ingest/source.hpp"

#include <algorithm>
#include <cassert>

namespace supmr::ingest {

SingleDeviceSource::SingleDeviceSource(
    std::shared_ptr<const storage::Device> device,
    std::shared_ptr<const RecordFormat> format, std::uint64_t chunk_bytes,
    IoMode io)
    : device_(std::move(device)),
      format_(std::move(format)),
      chunk_bytes_(chunk_bytes),
      io_(io) {
  assert(device_ && format_);
}

StatusOr<std::vector<ChunkExtent>> SingleDeviceSource::plan() const {
  std::vector<ChunkExtent> extents;
  const std::uint64_t size = device_->size();
  const std::uint64_t step = chunk_bytes_ == 0 ? size : chunk_bytes_;
  // Each chunk ends at the first record boundary at or after offset + step.
  for (std::uint64_t offset = 0; offset < size;) {
    SUPMR_ASSIGN_OR_RETURN(std::uint64_t end,
                           format_->adjust_split(*device_, offset + step));
    // adjust_split moves forward only; a pathological record larger than
    // the chunk still yields a strictly growing plan.
    if (end <= offset) {
      return Status::Internal("chunk plan did not advance at offset " +
                              std::to_string(offset));
    }
    extents.push_back(ChunkExtent{extents.size(), offset, end - offset, {}});
    offset = end;
  }
  return extents;
}

Status SingleDeviceSource::read_chunk(const ChunkExtent& extent,
                                      IngestChunk& out) const {
  out.index = extent.index;
  out.offset = extent.offset;
  out.files.clear();
  // Zero-copy path: borrow the extent straight out of the device's mapping.
  // Wrapper devices (throttled/fault/retrying) do not lend views, so a
  // fault-injected stack automatically lands on the copying path below —
  // a failed read can be retried, a page fault cannot.
  if (io_ == IoMode::kMmap && device_->supports_views()) {
    const auto view = device_->view_at(extent.offset, extent.length);
    if (view.size() == extent.length) {
      out.set_view(view);
      return Status::Ok();
    }
  }
  out.set_owned();
  out.data.resize(extent.length);
  SUPMR_ASSIGN_OR_RETURN(
      std::size_t n,
      device_->read_at(extent.offset,
                       std::span<char>(out.data.data(), out.data.size())));
  if (n != extent.length) {
    return Status::IoError("short chunk read: wanted " +
                           std::to_string(extent.length) + " got " +
                           std::to_string(n));
  }
  return Status::Ok();
}

MultiFileSource::MultiFileSource(
    std::vector<std::shared_ptr<const storage::Device>> files,
    std::size_t files_per_chunk, IoMode io)
    : files_(std::move(files)), files_per_chunk_(files_per_chunk), io_(io) {
  total_bytes_ = 0;
  for (const auto& f : files_) total_bytes_ += f->size();
}

StatusOr<std::vector<ChunkExtent>> MultiFileSource::plan() const {
  std::vector<ChunkExtent> extents;
  if (files_.empty()) return extents;
  const std::size_t per =
      files_per_chunk_ == 0 ? files_.size() : files_per_chunk_;
  std::uint64_t index = 0;
  for (std::size_t first = 0; first < files_.size(); first += per) {
    const std::size_t last = std::min(first + per, files_.size());
    ChunkExtent extent;
    extent.index = index++;
    extent.offset = 0;
    std::uint64_t pos = 0;
    for (std::size_t f = first; f < last; ++f) {
      extent.files.push_back(FileSpan{f, pos, files_[f]->size()});
      pos += files_[f]->size();
    }
    extent.length = pos;
    extents.push_back(std::move(extent));
  }
  return extents;
}

Status MultiFileSource::read_chunk(const ChunkExtent& extent,
                                   IngestChunk& out) const {
  out.index = extent.index;
  out.offset = extent.offset;
  out.files = extent.files;
  // A single-file chunk can be borrowed whole; coalesced chunks must be
  // contiguous in RAM (paper §III.A.1), which forces the copying path.
  if (io_ == IoMode::kMmap && extent.files.size() == 1) {
    const auto& span = extent.files.front();
    const auto& file = files_[span.file_index];
    if (file->supports_views()) {
      const auto view = file->view_at(0, span.length);
      if (view.size() == span.length) {
        out.set_view(view);
        return Status::Ok();
      }
    }
  }
  out.set_owned();
  out.data.resize(extent.length);
  for (const auto& span : extent.files) {
    const auto& file = files_[span.file_index];
    SUPMR_ASSIGN_OR_RETURN(
        std::size_t n,
        file->read_at(0, std::span<char>(out.data.data() + span.offset_in_chunk,
                                         span.length)));
    if (n != span.length) {
      return Status::IoError("short file read in chunk " +
                             std::to_string(extent.index));
    }
  }
  return Status::Ok();
}

storage::DeviceModel MultiFileSource::model() const {
  // Files live on one logical primary store; use the first file's model
  // (generators put all files on the same device class).
  if (files_.empty()) return storage::DeviceModel{};
  return files_.front()->model();
}

}  // namespace supmr::ingest
