#include "ingest/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <semaphore>
#include <thread>

#include "common/logging.hpp"
#include "fault/retry_policy.hpp"
#include "ingest/adaptive.hpp"
#include "obs/macros.hpp"
#include "threading/mpmc_queue.hpp"

namespace supmr::ingest {

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Every exit from the consumer loop — clean drain, processing error, or an
// exception thrown by process() — must cancel the producer, give back a
// live-chunk slot (the producer may be waiting for one), close the queue,
// and join, in that order. Without the slot the join deadlocks; without the
// join, the exception path destroys a joinable std::thread, which is
// std::terminate.
class ProducerJoinGuard {
 public:
  ProducerJoinGuard(std::atomic<bool>& cancel, std::counting_semaphore<>& slots,
                    MpmcQueue<IngestChunk>& ready, std::thread& producer)
      : cancel_(cancel), slots_(slots), ready_(ready), producer_(producer) {}
  ProducerJoinGuard(const ProducerJoinGuard&) = delete;
  ProducerJoinGuard& operator=(const ProducerJoinGuard&) = delete;

  ~ProducerJoinGuard() {
    cancel_.store(true, std::memory_order_release);
    slots_.release();  // the producer re-checks cancel after each slot
    ready_.close();    // idempotent; a later push() drops its chunk
    producer_.join();
  }

 private:
  std::atomic<bool>& cancel_;
  std::counting_semaphore<>& slots_;
  MpmcQueue<IngestChunk>& ready_;
  std::thread& producer_;
};
}  // namespace

StatusOr<PipelineStats> IngestPipeline::run(
    const std::function<Status(IngestChunk&)>& process) {
  SUPMR_ASSIGN_OR_RETURN(std::vector<ChunkExtent> plan, source_.plan());
  return run_planned(plan, process);
}

StatusOr<PipelineStats> IngestPipeline::run_planned(
    const std::vector<ChunkExtent>& plan,
    const std::function<Status(IngestChunk&)>& process) {
  if (plan.empty()) return PipelineStats{};
  std::size_t next = 0;
  return run_extents(
      [&](ChunkExtent& out) -> StatusOr<bool> {
        if (next == plan.size()) return false;
        out = plan[next++];
        return true;
      },
      nullptr, process);
}

StatusOr<PipelineStats> IngestPipeline::run_adaptive(
    ChunkSizeController& controller,
    const std::function<Status(IngestChunk&)>& process) {
  const auto* single = dynamic_cast<const SingleDeviceSource*>(&source_);
  if (single == nullptr) {
    return Status::InvalidArgument(
        "adaptive mode requires a single-device input");
  }
  std::uint64_t offset = 0;
  std::uint64_t index = 0;
  return run_extents(
      [&](ChunkExtent& out) -> StatusOr<bool> {
        if (offset >= single->total_bytes()) return false;
        const std::uint64_t want = std::max<std::uint64_t>(
            1, index == 0 ? controller.initial_chunk_bytes()
                          : controller.next_chunk_bytes());
        SUPMR_GAUGE_SET("ingest.adaptive.chunk_bytes", want);
        SUPMR_ASSIGN_OR_RETURN(out, single->extent_at(index, offset, want));
        offset += out.length;
        ++index;
        return true;
      },
      &controller, process);
}

StatusOr<PipelineStats> IngestPipeline::run_extents(
    const NextExtent& next_extent, ChunkSizeController* controller,
    const std::function<Status(IngestChunk&)>& process) {
  PipelineStats stats;
  std::mutex chunks_mu;  // stats.chunks: the producer appends, the consumer
                         // fills in wait_s/process_s
  // Read chunks wait here for the consumer. The queue bounds nothing: the
  // live-chunk bound is the semaphore — the producer takes a slot before
  // each read, and the consumer gives it back after each map round, once
  // the chunk's buffer is back in the pool.
  MpmcQueue<IngestChunk> ready;
  std::counting_semaphore<> slots(kMaxLiveChunks);
  std::atomic<bool> cancel{false};
  Status producer_status;  // written by the producer, read after the join
  const auto run_start = std::chrono::steady_clock::now();

  std::thread producer([&] {
    SUPMR_TRACE_THREAD_NAME("ingest.producer");
    ChunkExtent extent;
    while (true) {
      // Find the end of input before waiting for a slot, so the producer
      // exits as soon as it has read the last chunk.
      StatusOr<bool> more = next_extent(extent);
      if (!more.ok()) {
        producer_status = more.status();
        break;
      }
      if (!*more) break;
      slots.acquire();
      if (cancel.load(std::memory_order_acquire)) break;
      ChunkTiming timing{extent.index, extent.length};
      IngestChunk chunk;
      // Recycle a drained buffer so the copying path's resize() is
      // allocation-free once the pool is warm (the zero-copy path never
      // touches it and hands the capacity straight back).
      chunk.data = pool_->acquire();
      const auto t0 = std::chrono::steady_clock::now();
      Status st;
      {
        SUPMR_TRACE_SCOPE_VAR(span, "ingest", "ingest.read_chunk");
        SUPMR_TRACE_SET_ARG(span, "chunk", extent.index);
        SUPMR_TRACE_SET_ARG2(span, "bytes", extent.length);
        st = source_.read_chunk(extent, chunk);
      }
      timing.ingest_s = seconds_since(t0);
      SUPMR_HIST_OBSERVE("ingest.read_us", timing.ingest_s * 1e6);
      // Degrade mode: account for a poisoned chunk and move on. Any retry
      // already happened in the device stack under the source.
      timing.skipped = !st.ok() && degrade_ && fault::retryable(st);
      {
        std::lock_guard<std::mutex> lock(chunks_mu);
        stats.chunks.push_back(timing);
      }
      if (timing.skipped) {
        ++stats.chunks_skipped;
        stats.bytes_skipped += extent.length;
        SUPMR_COUNTER_ADD("ingest.chunks_skipped", 1);
        SUPMR_COUNTER_ADD("ingest.bytes_skipped", extent.length);
        SUPMR_LOG_WARN("ingest: skipping poisoned chunk %llu (%llu bytes): "
                       "%s",
                       static_cast<unsigned long long>(extent.index),
                       static_cast<unsigned long long>(extent.length),
                       st.to_string().c_str());
        pool_->release(std::move(chunk.data));
        slots.release();
        continue;
      }
      if (!st.ok()) {
        producer_status = std::move(st);
        break;
      }
      if (controller != nullptr) {
        controller->observe(
            ChunkFeedback{extent.index, chunk.size(), timing.ingest_s, 0.0});
      }
      SUPMR_COUNTER_ADD("ingest.chunks", 1);
      SUPMR_COUNTER_ADD("ingest.bytes", chunk.size());
      if (chunk.borrowed()) {
        SUPMR_COUNTER_ADD("ingest.borrowed_chunks", 1);
        pool_->release(std::move(chunk.data));  // unused capacity goes back
        chunk.data = {};
      }
      SUPMR_LOG_DEBUG("ingest: chunk %llu ready (%zu bytes)",
                      static_cast<unsigned long long>(chunk.index),
                      chunk.size());
      if (!ready.push(std::move(chunk))) break;  // consumer cancelled
    }
    ready.close();
  });

  Status consumer_status;
  {
    ProducerJoinGuard guard(cancel, slots, ready, producer);
    while (true) {
      const auto t_wait = std::chrono::steady_clock::now();
      std::optional<IngestChunk> next;
      {
        SUPMR_TRACE_SCOPE("ingest", "ingest.wait");
        next = ready.pop();
      }
      if (!next) break;  // closed and drained
      IngestChunk& chunk = *next;
      const double waited = seconds_since(t_wait);
      stats.consumer_wait_s += waited;
      SUPMR_HIST_OBSERVE("ingest.wait_us", waited * 1e6);

      // process() may move the chunk out to keep it, so read it first.
      const std::uint64_t index = chunk.index;
      const std::uint64_t bytes = chunk.size();
      const auto t_proc = std::chrono::steady_clock::now();
      Status st;
      {
        SUPMR_TRACE_SCOPE_VAR(span, "ingest", "ingest.process_chunk");
        SUPMR_TRACE_SET_ARG(span, "chunk", index);
        SUPMR_TRACE_SET_ARG2(span, "bytes", bytes);
        st = process(chunk);
      }
      const double processed = seconds_since(t_proc);
      stats.process_busy_s += processed;
      stats.total_bytes += bytes;
      SUPMR_HIST_OBSERVE("ingest.process_us", processed * 1e6);
      {
        std::lock_guard<std::mutex> lock(chunks_mu);
        stats.chunks[index].wait_s = waited;
        stats.chunks[index].process_s = processed;
      }
      if (controller != nullptr) {
        controller->observe(ChunkFeedback{index, bytes, 0.0, processed});
      }
      if (!chunk.borrowed()) pool_->release(std::move(chunk.data));
      slots.release();

      if (!st.ok()) {
        consumer_status = std::move(st);
        break;  // the guard cancels and wakes the producer before the join
      }
    }
  }
  stats.total_s = seconds_since(run_start);
  for (const auto& c : stats.chunks) stats.ingest_busy_s += c.ingest_s;

  if (!consumer_status.ok()) return consumer_status;
  if (!producer_status.ok()) return producer_status;
  return stats;
}

}  // namespace supmr::ingest
