// In-mapper combining ablation (docs/containers.md, ROADMAP item 2).
//
// Phoenix++'s core claim, measured end-to-end: folding duplicate keys at
// map-emit time shrinks the intermediate set by the key-duplication factor
// BEFORE it touches the reduce/merge phases. Three containers on the same
// seeded Zipf corpus:
//   raw       — bench-local no-fold baseline: every emit appended to a
//               per-thread log, folded only by a sort+fold in reduce (the
//               classic combiner-less shuffle)
//   default   — the app's stock HashContainer (folds, arena-keyed slots)
//   combining — CombiningContainer via --container=combining (folds, inline
//               keys + fold accounting)
// Reported: wall clock (best of N), and for the combining run the measured
// bytes-emitted -> bytes-into-merge reduction. Writes BENCH_combining.json
// (override with --out=PATH).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/pair_count.hpp"
#include "apps/split.hpp"
#include "apps/tokenize.hpp"
#include "apps/word_count.hpp"
#include "bench/bench_util.hpp"
#include "containers/hash.hpp"
#include "core/job.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "merge/introsort.hpp"
#include "merge/pway.hpp"
#include "storage/mem_device.hpp"
#include "wload/text_corpus.hpp"

using namespace supmr;

namespace {

constexpr std::uint64_t kCorpusBytes = 32ull << 20;
constexpr std::uint64_t kChunkBytes = 1024 * 1024;
constexpr int kRuns = 3;  // best-of; first run also warms the page cache
constexpr std::size_t kVocabulary = 150000;  // enough inserts to see the
                                             // probe-path difference

// Word count with NO emit-time fold: the shuffle a combiner-less runtime
// pays. Map appends every (word, 1) to the calling thread's log; reduce
// hash-partitions the concatenated logs and sort+folds each partition.
class RawWordCountApp final : public core::Application {
 public:
  using Result = std::pair<std::string, std::uint64_t>;

  void init(std::size_t num_map_threads) override {
    num_mappers_ = num_map_threads;
    logs_.assign(num_map_threads, {});
    results_.clear();
    partitions_.clear();
  }
  Status prepare_round(const ingest::IngestChunk& chunk) override {
    splits_ = apps::split_text(chunk.bytes(), apps::map_slices(num_mappers_));
    return Status::Ok();
  }
  std::size_t round_tasks() const override { return splits_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override {
    auto& log = logs_[thread_id];
    apps::tokenize_words(splits_[task], [&](std::string_view word,
                                            std::uint64_t) {
      log.emplace_back(word, 1);
      bytes_logged_[thread_id] += word.size() + sizeof(std::uint64_t);
    });
  }
  Status reduce(ThreadPool& pool, std::size_t num_partitions) override {
    partitions_.assign(num_partitions, {});
    std::vector<std::function<void(std::size_t)>> tasks;
    for (std::size_t p = 0; p < num_partitions; ++p) {
      tasks.push_back([this, p, num_partitions](std::size_t) {
        auto& part = partitions_[p];
        for (const auto& log : logs_) {
          for (const auto& [word, one] : log) {
            if (containers::hash_partition(containers::hash_bytes(word),
                                            num_partitions) == p)
              part.emplace_back(word, one);
          }
        }
        merge::introsort(part.begin(), part.end(),
                         [](const Result& a, const Result& b) {
                           return a.first < b.first;
                         });
        // Fold adjacent duplicates in place — the reduce-side combine the
        // map side refused to do.
        std::size_t out = 0;
        for (std::size_t i = 0; i < part.size();) {
          std::size_t j = i + 1;
          std::uint64_t sum = part[i].second;
          while (j < part.size() && part[j].first == part[i].first)
            sum += part[j++].second;
          part[out] = {std::move(part[i].first), sum};
          ++out;
          i = j;
        }
        part.resize(out);
      });
    }
    if (!pool.run_wave(tasks))
      return Status::Internal("reduce wave dropped: thread pool shut down");
    return Status::Ok();
  }
  Status merge(ThreadPool& pool, const core::MergePlan&,
               merge::MergeStats* stats) override {
    std::uint64_t total = 0;
    for (const auto& part : partitions_) total += part.size();
    results_.resize(total);
    std::vector<std::span<const Result>> runs;
    for (const auto& part : partitions_)
      runs.push_back(std::span<const Result>(part.data(), part.size()));
    merge::MergeStats local = merge::parallel_pway_merge(
        pool, std::move(runs), results_.data(),
        [](const Result& a, const Result& b) { return a.first < b.first; },
        0);
    partitions_.clear();
    if (stats != nullptr) *stats = std::move(local);
    return Status::Ok();
  }
  std::uint64_t result_count() const override { return results_.size(); }

  std::uint64_t bytes_logged() const {
    std::uint64_t b = 0;
    for (auto v : bytes_logged_) b += v;
    return b;
  }

 private:
  std::size_t num_mappers_ = 0;
  std::vector<std::span<const char>> splits_;
  std::vector<std::vector<Result>> logs_;
  std::vector<std::uint64_t> bytes_logged_ =
      std::vector<std::uint64_t>(64, 0);
  std::vector<std::vector<Result>> partitions_;
  std::vector<Result> results_;
};

struct RunResult {
  double wall_s = 0;
  std::uint64_t results = 0;
  core::CombineStats combine;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One fresh app instance per run (apps hold per-job container state).
RunResult run_once(core::Application& app, const storage::Device& device,
                   core::ContainerMode container, std::size_t threads) {
  core::JobConfig cfg;
  cfg.mode = core::ExecMode::kIngestMR;
  cfg.merge_mode = core::MergeMode::kPWay;
  cfg.num_map_threads = threads;
  cfg.num_reduce_threads = threads;
  cfg.container = container;
  auto status = app.use_container(container);
  if (!status.ok()) {
    std::fprintf(stderr, "use_container: %s\n", status.to_string().c_str());
    std::exit(1);
  }
  ingest::SingleDeviceSource source(
      std::shared_ptr<const storage::Device>(&device, [](const auto*) {}),
      std::make_shared<ingest::LineFormat>(), kChunkBytes);
  core::MapReduceJob job(app, source, cfg);
  const double t0 = now_s();
  auto result = job.run(cfg.mode);
  const double wall = now_s() - t0;
  if (!result.ok()) {
    std::fprintf(stderr, "job failed: %s\n",
                 result.status().to_string().c_str());
    std::exit(1);
  }
  return {wall, result->result_count, result->combine};
}

template <typename App>
RunResult best_of(const storage::Device& device, core::ContainerMode mode,
                  std::size_t threads) {
  RunResult best;
  for (int i = 0; i < kRuns; ++i) {
    App app;
    RunResult r = run_once(app, device, mode, threads);
    if (i == 0 || r.wall_s < best.wall_s) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_combining.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }
  const std::size_t threads =
      std::max<std::size_t>(core::JobConfig::default_threads(), 2);

  bench::print_banner(
      "in-mapper combining: raw shuffle vs HashContainer vs "
      "CombiningContainer",
      "Phoenix++ combine-on-insert; SupMR intermediate-bandwidth bottleneck");

  wload::TextCorpusConfig corpus_cfg;
  corpus_cfg.total_bytes = kCorpusBytes;
  corpus_cfg.vocabulary = kVocabulary;
  corpus_cfg.seed = 41;
  const storage::MemDevice device(wload::generate_text(corpus_cfg),
                                  "zipf-text");
  std::printf("corpus: %.1f MB Zipf(%.1f) text, vocabulary %zu, "
              "threads %zu, best of %d\n\n",
              device.size() / 1048576.0, corpus_cfg.zipf_skew,
              corpus_cfg.vocabulary, threads, kRuns);

  bench::BenchJson json("combining");

  // --- word count: all three containers ---
  const RunResult raw =
      best_of<RawWordCountApp>(device, core::ContainerMode::kDefault, threads);
  const RunResult wc_default = best_of<apps::WordCountApp>(
      device, core::ContainerMode::kDefault, threads);
  const RunResult wc_combining = best_of<apps::WordCountApp>(
      device, core::ContainerMode::kCombining, threads);
  {
    // Bytes a combiner-less shuffle carries into merge = everything mapped.
    RawWordCountApp probe;
    const RunResult probe_run =
        run_once(probe, device, core::ContainerMode::kDefault, threads);
    (void)probe_run;
    const double raw_bytes = static_cast<double>(probe.bytes_logged());
    const double folded_bytes =
        static_cast<double>(wc_combining.combine.bytes_into_merge);
    const double fold_ratio =
        folded_bytes > 0 ? raw_bytes / folded_bytes : 0.0;
    std::printf("wordcount  raw        %.3fs  (%llu results)\n", raw.wall_s,
                (unsigned long long)raw.results);
    std::printf("wordcount  default    %.3fs\n", wc_default.wall_s);
    std::printf("wordcount  combining  %.3fs\n", wc_combining.wall_s);
    std::printf("  emit-time fold: %.1f MB emitted -> %.2f MB into merge "
                "(%.0fx reduction, %llu of %llu emits folded)\n\n",
                wc_combining.combine.bytes_emitted / 1048576.0,
                folded_bytes / 1048576.0,
                wc_combining.combine.bytes_emitted /
                    std::max(folded_bytes, 1.0),
                (unsigned long long)wc_combining.combine.keys_folded,
                (unsigned long long)wc_combining.combine.emits);

    json.metric("wordcount_raw_wall", raw.wall_s, "s",
                "no-fold per-thread logs + reduce-side sort-fold");
    json.metric("wordcount_default_wall", wc_default.wall_s, "s",
                "stock HashContainer (folds, arena keys)");
    json.metric("wordcount_combining_wall", wc_combining.wall_s, "s",
                "CombiningContainer (folds, inline keys)");
    json.metric("wordcount_bytes_emitted",
                static_cast<double>(wc_combining.combine.bytes_emitted), "B",
                "what a combiner-less shuffle would carry into merge");
    json.metric("wordcount_bytes_into_merge",
                static_cast<double>(wc_combining.combine.bytes_into_merge),
                "B", "what survives the emit-time fold");
    json.metric("wordcount_fold_ratio", fold_ratio, "x",
                "raw logged bytes over combining bytes-into-merge");
    json.metric("wordcount_speedup_vs_raw",
                wc_combining.wall_s > 0 ? raw.wall_s / wc_combining.wall_s
                                        : 0.0,
                "x", "");
    json.metric("wordcount_speedup_vs_default",
                wc_combining.wall_s > 0
                    ? wc_default.wall_s / wc_combining.wall_s
                    : 0.0,
                "x", "");
  }

  // --- pair count: bigram keys, larger key space, same story ---
  const RunResult pc_default = best_of<apps::PairCountApp>(
      device, core::ContainerMode::kDefault, threads);
  const RunResult pc_combining = best_of<apps::PairCountApp>(
      device, core::ContainerMode::kCombining, threads);
  {
    const double emitted =
        static_cast<double>(pc_combining.combine.bytes_emitted);
    const double folded =
        static_cast<double>(pc_combining.combine.bytes_into_merge);
    std::printf("paircount  default    %.3fs  (%llu results)\n",
                pc_default.wall_s, (unsigned long long)pc_default.results);
    std::printf("paircount  combining  %.3fs\n", pc_combining.wall_s);
    std::printf("  emit-time fold: %.1f MB emitted -> %.2f MB into merge "
                "(%.0fx reduction)\n",
                emitted / 1048576.0, folded / 1048576.0,
                emitted / std::max(folded, 1.0));
    json.metric("paircount_default_wall", pc_default.wall_s, "s", "");
    json.metric("paircount_combining_wall", pc_combining.wall_s, "s", "");
    json.metric("paircount_fold_ratio",
                folded > 0 ? emitted / folded : 0.0, "x",
                "bytes emitted over bytes into merge");
    json.metric("paircount_speedup_vs_default",
                pc_combining.wall_s > 0
                    ? pc_default.wall_s / pc_combining.wall_s
                    : 0.0,
                "x", "");
  }

  if (!json.write(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
