// The ingest chunk pipeline (paper §III.B, Fig. 4).
//
// One producer (ingest) thread reads chunk c_{i+1} from the source while the
// consumer — the caller's thread, which runs the map waves — processes c_i.
// At most kMaxLiveChunks (two) chunks are live, the one being mapped and the
// one being read, which is the paper's double-buffering scheme: the pipeline
// never gets more than one chunk ahead. A counting semaphore of
// kMaxLiveChunks slots is the bound; read chunks reach the consumer through
// an MpmcQueue. The producer reads the extents of the source's plan, in
// order (paper §III.A.2: each job fixes its chunk size).
//
// The run is the paper's n+1 rounds: the first chunk is ingested with no
// compute overlapped (the consumer just waits), the middle rounds overlap
// ingest with compute, and the last round computes with no ingest running.
//
// Error handling: an ingest error closes the queue and surfaces after the
// already-read chunks drain; a processing error cancels the producer.
//
// Fault tolerance: the producer reads each chunk once. Retries live under
// the source, in a fault::RetryingDevice (fault/retrying_device.hpp) that
// re-issues every failed device read; a read that still fails reaches the
// pipeline as a Status. In degrade mode a chunk whose read failed with a
// retryable status is skipped and accounted (chunks_skipped /
// bytes_skipped); otherwise the failure ends the run.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.hpp"
#include "ingest/chunk.hpp"
#include "ingest/source.hpp"

namespace supmr::ingest {

struct ChunkTiming {
  std::uint64_t index = 0;
  std::uint64_t bytes = 0;
  double ingest_s = 0.0;   // producer: time reading this chunk
  double wait_s = 0.0;     // consumer: time blocked waiting for this chunk
  double process_s = 0.0;  // consumer: time inside the process callback
  bool skipped = false;    // degrade mode dropped this chunk
};

struct PipelineStats {
  double total_s = 0.0;          // wall time of the whole pipeline
  double ingest_busy_s = 0.0;    // producer time spent reading
  double process_busy_s = 0.0;   // consumer time spent processing
  double consumer_wait_s = 0.0;  // consumer time starved for chunks;
                                 // the non-overlapped ingest time
  std::uint64_t total_bytes = 0;
  std::uint64_t chunks_skipped = 0;  // degrade mode: poisoned chunks dropped
  std::uint64_t bytes_skipped = 0;   // input bytes lost to skipped chunks
  std::vector<ChunkTiming> chunks;

  bool degraded() const { return chunks_skipped > 0; }
};

class IngestPipeline {
 public:
  // `shared_buffers` (optional) recycles chunk buffers through a pool owned
  // by the caller — the JobManager hands every pipeline one process-wide
  // pool sized from the leases so concurrent jobs share warm buffers
  // instead of each allocating their own. When null the pipeline owns a
  // private pool sized for a single pipeline. `degrade` skips a chunk whose
  // read failed with a retryable status instead of failing the run.
  explicit IngestPipeline(const IngestSource& source, bool degrade = false,
                          ChunkBufferPool* shared_buffers = nullptr)
      : source_(source),
        degrade_(degrade),
        pool_(shared_buffers != nullptr ? shared_buffers : &owned_pool_) {}

  // Runs the full pipeline. `process` is invoked on the caller's thread for
  // each chunk, in stream order. It may move the chunk out to keep it (the
  // original runtime keeps every chunk until its map phase); the pipeline
  // then has no buffer to recycle for that chunk, and the two-live-chunk
  // bound covers only the chunks it still holds. Returns pipeline stats on
  // success, or the first error from planning, ingest, or processing.
  StatusOr<PipelineStats> run(
      const std::function<Status(IngestChunk&)>& process);

  // Runs with a precomputed plan (lets the runtime plan once and report
  // chunk counts before execution). Extent i of the plan must carry index
  // i, as every source's plan() numbers them; any other plan is
  // InvalidArgument before a chunk is read.
  StatusOr<PipelineStats> run_planned(
      const std::vector<ChunkExtent>& plan,
      const std::function<Status(IngestChunk&)>& process);

  // Owned-buffer recycling across rounds (see ChunkBufferPool): exposed so
  // tests and benchmarks can assert steady-state reuse. Resolves to the
  // shared pool when one was attached.
  const ChunkBufferPool& buffer_pool() const { return *pool_; }

 private:
  const IngestSource& source_;
  bool degrade_;
  ChunkBufferPool owned_pool_;
  ChunkBufferPool* pool_;
};

}  // namespace supmr::ingest
