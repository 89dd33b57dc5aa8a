// Adaptive ingest chunk sizing — the feedback loop the paper leaves as
// future work (§III.A.2, §VIII: "design components that factor in the
// expected performance and the workload characteristics (i.e. a feedback
// loop)" for "determining the optimal chunk size").
//
// The pipeline is balanced when ingesting the next chunk takes about as long
// as mapping the current one: smaller chunks waste cycles on thread churn,
// larger chunks serialize the tail. RateMatchingController tracks EWMA
// estimates of the ingest bandwidth and the map (process) bandwidth from
// per-chunk feedback and sizes the next chunk as
//
//     next = ingest_bw * max(predicted_process_time, round_floor)
//
// clamped to [min, max]. On an ingest-bound job this shrinks chunks toward
// the overhead floor (finer interleaving costs nothing when mappers are
// starved anyway); on a map-bound job it grows chunks until ingest stays
// just ahead of the mappers.
//
// IngestPipeline::run_adaptive drives a controller: the producer asks it for
// each next chunk size and cuts the chunk at a record boundary on the fly,
// so no full plan is needed up front.
#pragma once

#include <cstdint>
#include <mutex>

namespace supmr::ingest {

struct ChunkFeedback {
  std::uint64_t chunk_index = 0;
  std::uint64_t bytes = 0;
  double ingest_s = 0.0;   // producer-side read time (0 if unknown yet)
  double process_s = 0.0;  // consumer-side map time (0 if unknown yet)
};

// Thread-safety contract: observe() is called from both pipeline threads;
// next_chunk_bytes() from the producer. Implementations synchronize
// internally.
class ChunkSizeController {
 public:
  virtual ~ChunkSizeController() = default;
  virtual std::uint64_t initial_chunk_bytes() const = 0;
  virtual void observe(const ChunkFeedback& feedback) = 0;
  virtual std::uint64_t next_chunk_bytes() = 0;
};

// Degenerate controller: a constant chunk size (for A/B comparisons).
class FixedChunkController final : public ChunkSizeController {
 public:
  explicit FixedChunkController(std::uint64_t bytes) : bytes_(bytes) {}
  std::uint64_t initial_chunk_bytes() const override { return bytes_; }
  void observe(const ChunkFeedback&) override {}
  std::uint64_t next_chunk_bytes() override { return bytes_; }

 private:
  std::uint64_t bytes_;
};

class RateMatchingController final : public ChunkSizeController {
 public:
  struct Options {
    std::uint64_t initial_bytes = 16 << 20;
    std::uint64_t min_bytes = 1 << 20;
    std::uint64_t max_bytes = 4ULL << 30;
    // A round should last at least this long so per-round thread costs stay
    // amortized (the paper's small-chunk overhead, §VI.C.1).
    double round_floor_s = 0.010;
    // EWMA smoothing factor for the bandwidth estimates, in (0, 1].
    double alpha = 0.4;
  };

  RateMatchingController() : RateMatchingController(Options{}) {}
  explicit RateMatchingController(Options options);

  std::uint64_t initial_chunk_bytes() const override {
    return options_.initial_bytes;
  }
  void observe(const ChunkFeedback& feedback) override;
  std::uint64_t next_chunk_bytes() override;

  // Current estimates (for tests/telemetry); 0 until first observation.
  double ingest_bw_estimate() const;
  double process_bw_estimate() const;

 private:
  Options options_;
  mutable std::mutex mu_;
  double ingest_bw_ = 0.0;   // bytes/s
  double process_bw_ = 0.0;  // bytes/s
};

}  // namespace supmr::ingest
