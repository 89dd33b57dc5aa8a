// Ablation: adaptive chunk sizing vs fixed chunk sizes (the paper's future
// work, implemented here). Real wall-clock: word count over a throttled
// device. The adaptive controller should land within a few percent of the
// best fixed size without being told the device speed or map cost.
#include <cstdio>

#include "apps/word_count.hpp"
#include "bench/bench_util.hpp"
#include "core/job.hpp"
#include "ingest/adaptive.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/mem_device.hpp"
#include "storage/rate_limiter.hpp"
#include "storage/throttled_device.hpp"
#include "wload/text_corpus.hpp"

using namespace supmr;

namespace {

core::JobConfig config() {
  core::JobConfig jc;
  jc.num_map_threads = 4;
  jc.num_reduce_threads = 2;
  return jc;
}

double run_fixed(const std::string& text, double bw, std::uint64_t chunk) {
  auto base = std::make_shared<storage::MemDevice>(text, "corpus");
  auto limiter = std::make_shared<storage::RateLimiter>(bw, 16 * 1024);
  auto dev = std::make_shared<storage::ThrottledDevice>(base, limiter);
  apps::WordCountApp app;
  ingest::SingleDeviceSource src(dev, std::make_shared<ingest::LineFormat>(),
                                 chunk);
  core::MapReduceJob job(app, src, config());
  auto r = chunk == 0 ? job.run(core::ExecMode::kOriginal) : job.run(core::ExecMode::kIngestMR);
  return r.ok() ? r->phases.total_s : -1.0;
}

double run_adaptive(const std::string& text, double bw,
                    std::uint64_t* chunks_out) {
  auto base = std::make_shared<storage::MemDevice>(text, "corpus");
  auto limiter = std::make_shared<storage::RateLimiter>(bw, 16 * 1024);
  auto dev = std::make_shared<storage::ThrottledDevice>(base, limiter);
  apps::WordCountApp app;
  ingest::SingleDeviceSource src(dev, std::make_shared<ingest::LineFormat>(),
                                 0);
  ingest::RateMatchingController::Options opt;
  opt.initial_bytes = 4 * kMB;  // deliberately far from optimal
  opt.min_bytes = 64 * kKiB;
  opt.max_bytes = 16 * kMB;
  opt.round_floor_s = 0.02;
  ingest::RateMatchingController controller(opt);
  core::MapReduceJob job(app, src, config());
  job.set_chunk_controller(controller);
  auto r = job.run(core::ExecMode::kAdaptive);
  if (!r.ok()) return -1.0;
  if (chunks_out) *chunks_out = r->chunks;
  return r->phases.total_s;
}

}  // namespace

int main() {
  bench::print_banner(
      "Ablation -- adaptive chunk sizing vs fixed (real wall-clock)",
      "SupMR paper, Sections III.A.2 and VIII (feedback loop, future work)");

  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 24 * kMB;
  const std::string text = wload::generate_text(cfg);
  const double bw = 48.0e6;

  std::printf("word count, %s @ %s:\n", format_bytes(text.size()).c_str(),
              format_rate(bw).c_str());
  double best_fixed = 1e9;
  for (std::uint64_t chunk :
       {std::uint64_t(0), 16 * kMB, 4 * kMB, 1 * kMB, 256 * kKiB}) {
    const double t = run_fixed(text, bw, chunk);
    best_fixed = chunk != 0 ? std::min(best_fixed, t) : best_fixed;
    std::printf("  fixed %9s  total %6.2fs\n",
                chunk == 0 ? "none" : format_bytes(chunk).c_str(), t);
  }
  std::uint64_t chunks = 0;
  const double adaptive = run_adaptive(text, bw, &chunks);
  std::printf("  adaptive        total %6.2fs  (%llu chunks; started at 4MB,"
              " converged by feedback)\n",
              adaptive, (unsigned long long)chunks);
  if (adaptive > 0) {
    std::printf("\n  adaptive vs best fixed: %+.1f%%\n",
                (adaptive / best_fixed - 1.0) * 100.0);
  }
  std::printf("expected shape: adaptive lands near the best fixed size with\n"
              "no tuning; 'none' is worst (no overlap).\n");
  return 0;
}
