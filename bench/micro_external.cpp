// Micro-benchmark: the budgeted word count (the one spill, RunSet runs)
// across memory budgets.
#include <benchmark/benchmark.h>

#include "apps/word_count.hpp"
#include "core/job.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/mem_device.hpp"
#include "wload/text_corpus.hpp"

namespace supmr {
namespace {

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
