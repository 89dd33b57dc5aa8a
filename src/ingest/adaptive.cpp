#include "ingest/adaptive.hpp"

#include <algorithm>
#include <cmath>

namespace supmr::ingest {

namespace {
double ewma(double current, double sample, double alpha) {
  return current == 0.0 ? sample : (1.0 - alpha) * current + alpha * sample;
}
}  // namespace

RateMatchingController::RateMatchingController(Options options)
    : options_(options) {
  options_.min_bytes = std::max<std::uint64_t>(1, options_.min_bytes);
  options_.max_bytes = std::max(options_.max_bytes, options_.min_bytes);
}

void RateMatchingController::observe(const ChunkFeedback& feedback) {
  if (feedback.bytes == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Duration-weighted smoothing: a measurement much shorter than the round
  // floor is dominated by burst credit and scheduling noise (e.g. a small
  // read served entirely from a throttled device's idle credit looks
  // infinitely fast), so it contributes proportionally less.
  const auto weighted_alpha = [&](double duration) {
    return options_.alpha * std::min(1.0, duration / options_.round_floor_s);
  };
  if (feedback.ingest_s > 0.0) {
    ingest_bw_ = ewma(ingest_bw_, double(feedback.bytes) / feedback.ingest_s,
                      weighted_alpha(feedback.ingest_s));
  }
  if (feedback.process_s > 0.0) {
    process_bw_ = ewma(process_bw_,
                       double(feedback.bytes) / feedback.process_s,
                       weighted_alpha(feedback.process_s));
  }
}

std::uint64_t RateMatchingController::next_chunk_bytes() {
  std::lock_guard<std::mutex> lock(mu_);
  if (ingest_bw_ <= 0.0) return options_.initial_bytes;
  // A pipeline round lasts chunk / min(ingest_bw, process_bw) — whichever
  // side is slower paces it (the other overlaps underneath). Smaller chunks
  // start overlap earlier and shrink the unoverlapped lead-in/tail, but each
  // round pays a fixed thread-wave cost (§VI.C.1), so the round must last at
  // least round_floor_s:
  //
  //     chunk* = round_floor_s * min(ingest_bw, process_bw)
  //
  // i.e. the smallest chunk whose round still amortizes its overhead.
  double pacing_bw = ingest_bw_;
  if (process_bw_ > 0.0) pacing_bw = std::min(pacing_bw, process_bw_);
  const double bytes = pacing_bw * options_.round_floor_s;
  const std::uint64_t clamped = static_cast<std::uint64_t>(std::llround(
      std::clamp(bytes, double(options_.min_bytes),
                 double(options_.max_bytes))));
  return clamped;
}

double RateMatchingController::ingest_bw_estimate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ingest_bw_;
}

double RateMatchingController::process_bw_estimate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return process_bw_;
}

}  // namespace supmr::ingest
