// Tests for k-means (iterative MapReduce over the persistent-container
// runtime) and the clustered-points workload generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "apps/kmeans.hpp"
#include "core/job.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/mem_device.hpp"
#include "wload/numeric.hpp"

namespace supmr::apps {
namespace {

using ingest::LineFormat;
using ingest::SingleDeviceSource;

std::shared_ptr<const storage::Device> mem(std::string s) {
  return std::make_shared<storage::MemDevice>(std::move(s), "m");
}

core::JobConfig small_config() {
  core::JobConfig cfg;
  cfg.num_map_threads = 4;
  cfg.num_reduce_threads = 2;
  return cfg;
}

// ------------------------------------------------------ points generator

TEST(PointsGenerator, EmitsRequestedPoints) {
  wload::PointsConfig cfg;
  cfg.num_points = 500;
  cfg.dim = 3;
  std::vector<std::vector<double>> centers;
  const std::string data = wload::generate_points(cfg, &centers);
  EXPECT_EQ(centers.size(), cfg.clusters);
  std::size_t lines = 0;
  for (char c : data) lines += (c == '\n');
  EXPECT_EQ(lines, 500u);
  // Each line has dim-1 separators.
  const std::size_t first_nl = data.find('\n');
  const std::string first_line = data.substr(0, first_nl);
  EXPECT_EQ(std::count(first_line.begin(), first_line.end(), ' '), 2);
}

TEST(PointsGenerator, CentersAreSeparated) {
  wload::PointsConfig cfg;
  cfg.clusters = 4;
  cfg.spread = 1.0;
  std::vector<std::vector<double>> centers;
  wload::generate_points(cfg, &centers);
  for (std::size_t a = 0; a < centers.size(); ++a) {
    for (std::size_t b = a + 1; b < centers.size(); ++b) {
      double d2 = 0;
      for (std::size_t d = 0; d < cfg.dim; ++d) {
        const double delta = centers[a][d] - centers[b][d];
        d2 += delta * delta;
      }
      EXPECT_GT(std::sqrt(d2), 4.0 * cfg.spread);
    }
  }
}

// --------------------------------------------------------------- k-means

TEST(KMeans, SingleIterationAssignsAllPoints) {
  wload::PointsConfig cfg;
  cfg.num_points = 2000;
  cfg.clusters = 3;
  std::vector<std::vector<double>> centers;
  const std::string data = wload::generate_points(cfg, &centers);
  KMeansApp app({.clusters = 3, .dim = 2}, centers);
  SingleDeviceSource src(mem(data), std::make_shared<LineFormat>(), 16384);
  core::MapReduceJob job(app, src, small_config());
  ASSERT_TRUE(job.run(core::ExecMode::kIngestMR).ok());
  EXPECT_EQ(app.points_assigned(), 2000u);
  EXPECT_EQ(app.new_centroids().size(), 3u);
}

TEST(KMeans, RecoversPlantedCenters) {
  wload::PointsConfig cfg;
  cfg.num_points = 6000;
  cfg.clusters = 4;
  cfg.spread = 1.5;
  cfg.seed = 77;
  std::vector<std::vector<double>> truth;
  const std::string data = wload::generate_points(cfg, &truth);
  SingleDeviceSource src(mem(data), std::make_shared<LineFormat>(), 32768);

  // Start from the true centers perturbed, so label correspondence holds.
  std::vector<std::vector<double>> init = truth;
  for (auto& c : init)
    for (auto& x : c) x += 2.0;

  auto result = run_kmeans(src, small_config(), {.clusters = 4, .dim = 2},
                           init, 30, 1e-4);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_GT(result->iterations, 1u);
  EXPECT_LT(result->final_shift, 1e-4);
  for (std::size_t c = 0; c < 4; ++c) {
    double d2 = 0;
    for (std::size_t d = 0; d < 2; ++d) {
      const double delta = result->centroids[c][d] - truth[c][d];
      d2 += delta * delta;
    }
    // Sample mean of a blob is within a fraction of its spread.
    EXPECT_LT(std::sqrt(d2), cfg.spread) << "cluster " << c;
  }
}

TEST(KMeans, DeterministicAcrossChunkSizes) {
  wload::PointsConfig cfg;
  cfg.num_points = 3000;
  std::vector<std::vector<double>> centers;
  const std::string data = wload::generate_points(cfg, &centers);
  std::vector<std::vector<std::vector<double>>> outputs;
  for (std::uint64_t chunk : {0ull, 8192ull, 65536ull}) {
    SingleDeviceSource src(mem(data), std::make_shared<LineFormat>(), chunk);
    auto result = run_kmeans(src, small_config(),
                             {.clusters = cfg.clusters, .dim = cfg.dim},
                             centers, 10, 1e-6);
    ASSERT_TRUE(result.ok());
    outputs.push_back(result->centroids);
  }
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    for (std::size_t c = 0; c < cfg.clusters; ++c) {
      for (std::size_t d = 0; d < cfg.dim; ++d) {
        // fp reassociation across chunkings; blobs are well separated so
        // assignments do not flip.
        EXPECT_NEAR(outputs[i][c][d], outputs[0][c][d], 1e-6);
      }
    }
  }
}

TEST(KMeans, EmptyClusterKeepsCentroid) {
  // Two points near origin, one centroid far away: it must not collapse to
  // NaN, it keeps its position.
  const std::string data = "0.0 0.0\n1.0 1.0\n";
  std::vector<std::vector<double>> init = {{0.5, 0.5}, {1000.0, 1000.0}};
  KMeansApp app({.clusters = 2, .dim = 2}, init);
  SingleDeviceSource src(mem(data), std::make_shared<LineFormat>(), 0);
  core::MapReduceJob job(app, src, small_config());
  ASSERT_TRUE(job.run(core::ExecMode::kIngestMR).ok());
  EXPECT_DOUBLE_EQ(app.new_centroids()[1][0], 1000.0);
  EXPECT_NEAR(app.new_centroids()[0][0], 0.5, 1e-12);
}

TEST(KMeans, RejectsWrongCentroidCount) {
  const std::string data = "0 0\n";
  SingleDeviceSource src(mem(data), std::make_shared<LineFormat>(), 0);
  auto result = run_kmeans(src, small_config(), {.clusters = 3, .dim = 2},
                           {{0.0, 0.0}}, 5, 1e-6);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace apps
