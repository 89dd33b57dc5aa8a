// Micro-benchmarks: external-memory structures (the spilling sorter and
// the budgeted word count) across memory budgets.
#include <benchmark/benchmark.h>

#include "apps/word_count.hpp"
#include "core/job.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "merge/external_sorter.hpp"
#include "storage/mem_device.hpp"
#include "wload/teragen.hpp"
#include "wload/text_corpus.hpp"

namespace supmr {
namespace {

void BM_ExternalSort(benchmark::State& state) {
  wload::TeraGenConfig cfg;
  cfg.num_records = 20000;  // 2 MB
  const std::string input = wload::teragen_to_string(cfg);
  ThreadPool pool(2);
  for (auto _ : state) {
    merge::ExternalSorterOptions opt;
    opt.memory_budget_bytes = state.range(0);
    opt.spill_dir = "/tmp";
    merge::ExternalSorter sorter(pool, opt);
    auto st = sorter.add(std::span<const char>(input.data(), input.size()));
    if (!st.ok()) {
      state.SkipWithError("add failed");
      return;
    }
    std::uint64_t bytes = 0;
    auto result = sorter.finish([&](std::span<const char> slab) {
      bytes += slab.size();
      return Status::Ok();
    });
    if (!result.ok() || bytes != input.size()) {
      state.SkipWithError("finish failed");
      return;
    }
  }
  state.SetBytesProcessed(state.iterations() * input.size());
  state.SetLabel("budget=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ExternalSort)
    ->Arg(64 << 10)    // ~32 spills
    ->Arg(512 << 10)   // ~4 spills
    ->Arg(4 << 20)     // in-memory
    ->Unit(benchmark::kMillisecond);

void BM_BudgetedWordCount(benchmark::State& state) {
  // Word count under a spill budget, end to end: map into the table, spill
  // it as a sorted run whenever it outgrows the budget, fold the runs back
  // in after the merge.
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 1 << 20;
  cfg.vocabulary = 20000;
  const std::string text = wload::generate_text(cfg);
  core::JobConfig jc;
  jc.num_map_threads = 1;
  jc.num_reduce_threads = 1;
  for (auto _ : state) {
    apps::WordCountApp app(state.range(0),
                           std::make_unique<containers::RunSet>("/tmp"));
    ingest::SingleDeviceSource src(
        std::make_shared<storage::MemDevice>(text, "corpus"),
        std::make_shared<ingest::LineFormat>(), 64 << 10);
    core::MapReduceJob job(app, src, jc);
    if (!job.run(core::ExecMode::kIngestMR).ok() || app.results().empty()) {
      state.SkipWithError("budgeted word count failed");
      return;
    }
  }
  state.SetBytesProcessed(state.iterations() * text.size());
  state.SetLabel("budget=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_BudgetedWordCount)
    ->Arg(128 << 10)  // spills
    ->Arg(16 << 20)   // in-memory
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace supmr

BENCHMARK_MAIN();
