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

void ClusterAccumCombiner::combine(ClusterAccum& acc, const ClusterAccum& v) {
  if (v.count == 0) return;
  if (acc.sum.empty()) acc.sum.assign(v.sum.size(), 0.0);
  assert(acc.sum.size() == v.sum.size());
  for (std::size_t d = 0; d < v.sum.size(); ++d) acc.sum[d] += v.sum[d];
  acc.count += v.count;
}

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
  container_.init(num_map_threads, options_.clusters);
  assigned_per_thread_.assign(num_map_threads, 0);
  new_centroids_.clear();
}

Status KMeansApp::prepare_round(const ingest::IngestChunk& chunk) {
  splits_ = split_lines(chunk.bytes(), num_mappers_);
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

void KMeansApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < splits_.size());
  std::span<const char> split = splits_[task];
  std::vector<double> point(options_.dim);
  // Thread-local accumulators flushed once per task keep emit costs off the
  // per-point path.
  std::vector<ClusterAccum> local(options_.clusters);
  std::uint64_t assigned = 0;
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
      ++assigned;
    }
    begin = end + 1;
  }
  for (std::size_t c = 0; c < options_.clusters; ++c) {
    if (local[c].count > 0) container_.emit(thread_id, c, local[c]);
  }
  assigned_per_thread_[thread_id] += assigned;
}

Status KMeansApp::reduce(ThreadPool& pool, std::size_t num_partitions) {
  (void)num_partitions;  // clusters are few: one task per cluster
  std::vector<ClusterAccum> totals(options_.clusters);
  std::vector<std::function<void(std::size_t)>> tasks;
  for (std::size_t c = 0; c < options_.clusters; ++c) {
    tasks.push_back([this, &totals, c](std::size_t) {
      container_.reduce_range(c, c + 1, &totals[c]);
    });
  }
  if (!pool.run_wave(tasks))
    return Status::Internal("reduce wave dropped: thread pool shut down");
  new_centroids_ = centroids_;
  for (std::size_t c = 0; c < options_.clusters; ++c) {
    if (totals[c].count == 0) continue;  // empty cluster: keep old centroid
    for (std::size_t d = 0; d < options_.dim; ++d)
      new_centroids_[c][d] = totals[c].sum[d] / double(totals[c].count);
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
  for (auto a : assigned_per_thread_) n += a;
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
