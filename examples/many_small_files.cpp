// Intra-file chunking on a many-small-files dataset: builds an inverted
// index (word -> files containing it) with SupMR's MultiFileSource, which
// coalesces k files per ingest chunk (paper §III.A.1 — the "word count"
// style Hadoop layout, here driving a file-aware application).
//
// Usage: ./examples/many_small_files [num-files] [files-per-chunk]
#include <cstdio>

#include "apps/inverted_index.hpp"
#include "common/units.hpp"
#include "core/job.hpp"
#include "ingest/source.hpp"
#include "wload/text_corpus.hpp"

using namespace supmr;

int main(int argc, char** argv) {
  std::size_t num_files = 30;
  if (argc > 1) num_files = std::strtoull(argv[1], nullptr, 10);
  std::size_t per_chunk = 4;
  if (argc > 2) per_chunk = std::strtoull(argv[2], nullptr, 10);

  wload::TextCorpusConfig cfg;
  cfg.vocabulary = 2000;
  auto files = wload::generate_text_files(cfg, num_files, 64 * kKiB);

  ingest::MultiFileSource source(files, per_chunk);
  auto plan = source.plan();
  if (!plan.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 plan.status().to_string().c_str());
    return 1;
  }
  std::printf("%zu files, %zu per chunk -> %zu ingest chunks ", num_files,
              per_chunk, plan->size());
  std::printf("(last chunk holds %zu files)\n\n",
              plan->back().files.size());

  apps::InvertedIndexApp app;
  core::JobConfig jc;
  jc.num_map_threads = 4;
  jc.num_reduce_threads = 2;
  core::MapReduceJob job(app, source, jc);
  auto result = job.run(core::ExecMode::kIngestMR);
  if (!result.ok()) {
    std::fprintf(stderr, "job failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }

  std::printf("indexed %llu distinct words across %zu files in %.3fs "
              "(%llu map rounds)\n\n",
              (unsigned long long)app.index().size(), num_files,
              result->phases.total_s,
              (unsigned long long)result->map_rounds);

  // Show a few postings: the most widespread and the rarest words.
  const auto& index = app.index();
  const auto* widest = &index[0];
  const auto* narrowest = &index[0];
  for (const auto& posting : index) {
    if (posting.second.size() > widest->second.size()) widest = &posting;
    if (posting.second.size() < narrowest->second.size()) narrowest = &posting;
  }
  auto show = [&](const char* tag, const apps::InvertedIndexApp::Posting& p) {
    const auto& [word, files] = p;
    std::printf("%s '%s' appears in %zu files: [", tag, word.c_str(),
                files.size());
    for (std::size_t i = 0; i < std::min<std::size_t>(8, files.size()); ++i)
      std::printf("%s%u", i ? ", " : "", files[i]);
    std::printf("%s]\n", files.size() > 8 ? ", ..." : "");
  };
  show("most widespread:", *widest);
  show("rarest:         ", *narrowest);
  return 0;
}
