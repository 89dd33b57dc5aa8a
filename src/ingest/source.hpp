// Ingest sources: where chunks come from.
//
// SingleDeviceSource implements inter-file chunking (paper §III.A.1): one
// big input split at record boundaries into ~chunk_bytes pieces — the
// TeraSort-style layout. MultiFileSource implements intra-file chunking:
// many small files coalesced k-per-chunk — the word-count-style layout. The
// last chunk may be smaller (paper's 30-files/4-per-chunk example yields
// 7x4 + 1x2).
#pragma once

#include <memory>
#include <vector>

#include "common/status.hpp"
#include "ingest/chunk.hpp"
#include "ingest/record_format.hpp"
#include "storage/device.hpp"

namespace supmr::ingest {

class IngestSource {
 public:
  virtual ~IngestSource() = default;

  // Computes the chunk plan. Deterministic; may read the source to locate
  // record boundaries.
  virtual StatusOr<std::vector<ChunkExtent>> plan() const = 0;

  // Reads one planned chunk into `out` (reusing out.data's capacity).
  virtual Status read_chunk(const ChunkExtent& extent, IngestChunk& out) const = 0;

  virtual std::uint64_t total_bytes() const = 0;

  // Aggregate performance model of the backing device(s), for simulation.
  virtual storage::DeviceModel model() const = 0;
};

// Inter-file chunking over one device.
class SingleDeviceSource final : public IngestSource {
 public:
  // chunk_bytes == 0 means a single chunk spanning the whole device (the
  // original runtime's one-shot ingest). With IoMode::kMmap, read_chunk
  // lends borrowed views when the device supports them and silently falls
  // back to the copying path otherwise.
  SingleDeviceSource(std::shared_ptr<const storage::Device> device,
                     std::shared_ptr<const RecordFormat> format,
                     std::uint64_t chunk_bytes, IoMode io = IoMode::kRead);

  StatusOr<std::vector<ChunkExtent>> plan() const override;
  Status read_chunk(const ChunkExtent& extent, IngestChunk& out) const override;
  std::uint64_t total_bytes() const override { return device_->size(); }
  storage::DeviceModel model() const override { return device_->model(); }

  std::uint64_t chunk_bytes() const { return chunk_bytes_; }
  IoMode io() const { return io_; }

 private:
  std::shared_ptr<const storage::Device> device_;
  std::shared_ptr<const RecordFormat> format_;
  std::uint64_t chunk_bytes_;
  IoMode io_;
};

// Intra-file chunking over many whole files.
class MultiFileSource final : public IngestSource {
 public:
  // files_per_chunk == 0 means all files in one chunk. IoMode::kMmap lends
  // a borrowed view only for single-file chunks — a coalesced chunk must be
  // contiguous in memory, which requires copying.
  MultiFileSource(std::vector<std::shared_ptr<const storage::Device>> files,
                  std::size_t files_per_chunk, IoMode io = IoMode::kRead);

  StatusOr<std::vector<ChunkExtent>> plan() const override;
  Status read_chunk(const ChunkExtent& extent, IngestChunk& out) const override;
  std::uint64_t total_bytes() const override { return total_bytes_; }
  storage::DeviceModel model() const override;

  std::size_t file_count() const { return files_.size(); }
  std::size_t files_per_chunk() const { return files_per_chunk_; }
  IoMode io() const { return io_; }

 private:
  std::vector<std::shared_ptr<const storage::Device>> files_;
  std::size_t files_per_chunk_;
  std::uint64_t total_bytes_;
  IoMode io_;
};

}  // namespace supmr::ingest
