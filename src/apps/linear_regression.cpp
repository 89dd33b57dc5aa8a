#include "apps/linear_regression.hpp"

#include <cassert>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "apps/split.hpp"
#include "common/rng.hpp"

namespace supmr::apps {

void LinearRegressionApp::init(std::size_t num_map_threads) {
  num_mappers_ = num_map_threads;
  per_task_.clear();
  totals_ = Stats{};
}

void LinearRegressionApp::fold_round() {
  for (const Stats& s : per_task_) {
    totals_.n += s.n;
    totals_.sx += s.sx;
    totals_.sy += s.sy;
    totals_.sxx += s.sxx;
    totals_.sxy += s.sxy;
  }
  per_task_.clear();
}

Status LinearRegressionApp::prepare_round(const ingest::IngestChunk& chunk) {
  fold_round();
  splits_ = split_lines(chunk.bytes(), map_slices(num_mappers_));
  per_task_.assign(splits_.size(), Stats{});
  return Status::Ok();
}

void LinearRegressionApp::map_task(std::size_t task,
                                   std::size_t /*thread_id*/) {
  assert(task < splits_.size());
  std::span<const char> split = splits_[task];
  Stats local;
  std::size_t begin = 0;
  while (begin < split.size()) {
    const void* nl =
        std::memchr(split.data() + begin, '\n', split.size() - begin);
    const std::size_t end =
        nl ? static_cast<std::size_t>(static_cast<const char*>(nl) -
                                      split.data())
           : split.size();
    double x = 0.0, y = 0.0;
    auto [px, ecx] = std::from_chars(split.data() + begin,
                                     split.data() + end, x);
    if (ecx == std::errc{}) {
      while (px < split.data() + end && *px == ' ') ++px;
      auto [py, ecy] = std::from_chars(px, split.data() + end, y);
      if (ecy == std::errc{} && py == split.data() + end) {
        ++local.n;
        local.sx += x;
        local.sy += y;
        local.sxx += x * x;
        local.sxy += x * y;
      }
    }
    begin = end + 1;
  }
  per_task_[task] = local;
}

Status LinearRegressionApp::reduce(ThreadPool&, std::size_t) {
  fold_round();
  if (totals_.n >= 2) {
    const double n = double(totals_.n);
    const double denom = n * totals_.sxx - totals_.sx * totals_.sx;
    if (denom != 0.0) {
      slope_ = (n * totals_.sxy - totals_.sx * totals_.sy) / denom;
      intercept_ = (totals_.sy - slope_ * totals_.sx) / n;
    }
  }
  return Status::Ok();
}

Status LinearRegressionApp::merge(ThreadPool&, const core::MergePlan&,
                                  merge::MergeStats* stats) {
  if (stats != nullptr) *stats = merge::MergeStats{};
  return Status::Ok();
}

std::string generate_xy(std::uint64_t num_points, double slope,
                        double intercept, double noise, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::string out;
  out.reserve(num_points * 24);
  char buf[64];
  for (std::uint64_t i = 0; i < num_points; ++i) {
    const double x = rng.uniform_double() * 1000.0;
    const double eps = (rng.uniform_double() - 0.5) * 2.0 * noise;
    const double y = slope * x + intercept + eps;
    const int n = std::snprintf(buf, sizeof(buf), "%.5f %.5f\n", x, y);
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

}  // namespace supmr::apps
