#include "apps/kmeans.hpp"

#include "apps/split.hpp"
#include "core/job.hpp"

#include <cassert>
#include <limits>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>

namespace supmr::apps {

namespace {

// Parses `dim` doubles from [begin, end); returns false on malformed lines.
bool parse_point(const char* begin, const char* end, std::size_t dim,
                 double* out) {
  const char* p = begin;
  for (std::size_t d = 0; d < dim; ++d) {
    while (p < end && *p == ' ') ++p;
    auto [next, ec] = std::from_chars(p, end, out[d]);
    if (ec != std::errc{}) return false;
    p = next;
  }
  while (p < end && *p == ' ') ++p;
  return p == end;
}

}  // namespace

KMeansApp::KMeansApp(KMeansOptions options,
                     std::vector<std::vector<double>> centroids)
    : options_(options), centroids_(std::move(centroids)) {
  assert(centroids_.size() == options_.clusters);
  for (const auto& c : centroids_) {
    assert(c.size() == options_.dim);
    (void)c;
  }
}

void KMeansApp::init(std::size_t num_map_threads) {
  num_mappers_ = num_map_threads;
  per_task_.clear();
  totals_.assign(options_.clusters, ClusterAccum{});
  new_centroids_.clear();
}

void KMeansApp::fold_round() {
  for (const std::vector<ClusterAccum>& row : per_task_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (row[c].count == 0) continue;
      ClusterAccum& acc = totals_[c];
      if (acc.sum.empty()) acc.sum.assign(options_.dim, 0.0);
      for (std::size_t d = 0; d < options_.dim; ++d)
        acc.sum[d] += row[c].sum[d];
      acc.count += row[c].count;
    }
  }
  per_task_.clear();
}

Status KMeansApp::prepare_round(const ingest::IngestChunk& chunk) {
  fold_round();
  splits_ = split_lines(chunk.bytes(), map_slices(num_mappers_));
  per_task_.assign(splits_.size(), {});
  return Status::Ok();
}

std::size_t KMeansApp::nearest(const double* point) const {
  std::size_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centroids_.size(); ++c) {
    double d2 = 0.0;
    for (std::size_t d = 0; d < options_.dim; ++d) {
      const double delta = point[d] - centroids_[c][d];
      d2 += delta * delta;
    }
    if (d2 < best_d2) {
      best_d2 = d2;
      best = c;
    }
  }
  return best;
}

void KMeansApp::map_task(std::size_t task, std::size_t /*thread_id*/) {
  assert(task < splits_.size());
  std::span<const char> split = splits_[task];
  std::vector<double> point(options_.dim);
  std::vector<ClusterAccum> local(options_.clusters);
  std::size_t begin = 0;
  while (begin < split.size()) {
    const void* nl =
        std::memchr(split.data() + begin, '\n', split.size() - begin);
    const std::size_t end =
        nl ? static_cast<std::size_t>(static_cast<const char*>(nl) -
                                      split.data())
           : split.size();
    if (end > begin &&
        parse_point(split.data() + begin, split.data() + end, options_.dim,
                    point.data())) {
      const std::size_t c = nearest(point.data());
      auto& acc = local[c];
      if (acc.sum.empty()) acc.sum.assign(options_.dim, 0.0);
      for (std::size_t d = 0; d < options_.dim; ++d)
        acc.sum[d] += point[d];
      ++acc.count;
    }
    begin = end + 1;
  }
  per_task_[task] = std::move(local);
}

Status KMeansApp::reduce(ThreadPool&, std::size_t) {
  // Clusters are few: the coordinator folds the last round's rows.
  fold_round();
  new_centroids_ = centroids_;
  for (std::size_t c = 0; c < options_.clusters; ++c) {
    if (totals_[c].count == 0) continue;  // empty cluster: keep old centroid
    for (std::size_t d = 0; d < options_.dim; ++d)
      new_centroids_[c][d] = totals_[c].sum[d] / double(totals_[c].count);
  }
  return Status::Ok();
}

Status KMeansApp::merge(ThreadPool&, const core::MergePlan&,
                        merge::MergeStats* stats) {
  if (stats != nullptr) *stats = merge::MergeStats{};
  return Status::Ok();
}

std::uint64_t KMeansApp::points_assigned() const {
  std::uint64_t n = 0;
  for (const ClusterAccum& acc : totals_) n += acc.count;
  return n;
}

StatusOr<KMeansResult> run_kmeans(
    const ingest::IngestSource& source, const core::JobConfig& config,
    const KMeansOptions& options,
    std::vector<std::vector<double>> initial_centroids,
    std::size_t max_iters, double epsilon) {
  if (initial_centroids.size() != options.clusters) {
    return Status::InvalidArgument("need one initial centroid per cluster");
  }
  KMeansResult result;
  result.centroids = std::move(initial_centroids);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    KMeansApp app(options, result.centroids);
    core::MapReduceJob job(app, source, config);
    SUPMR_ASSIGN_OR_RETURN(core::JobResult jr, job.run(core::ExecMode::kIngestMR));
    (void)jr;
    result.points = app.points_assigned();
    double shift = 0.0;
    for (std::size_t c = 0; c < options.clusters; ++c) {
      double d2 = 0.0;
      for (std::size_t d = 0; d < options.dim; ++d) {
        const double delta =
            app.new_centroids()[c][d] - result.centroids[c][d];
        d2 += delta * delta;
      }
      shift = std::max(shift, std::sqrt(d2));
    }
    result.centroids = app.new_centroids();
    result.iterations = iter + 1;
    result.final_shift = shift;
    if (shift < epsilon) break;
  }
  result.total_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace supmr::apps
