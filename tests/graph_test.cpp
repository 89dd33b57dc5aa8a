// JobGraph tests: DAG validation errors, memory-vs-file handoff
// byte-equality, forced spill under a tiny budget, the chained apps
// (pmi / tfidf / msort) against the sequential graph oracle, and the graph
// routing in ref::run_cell (including spill accounting surfaced in the
// outcome). Managed graph runs (ref::run_cell_managed, the path `supmr
// serve` takes) are checked by tests/harness/managed_conformance_test.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/chains.hpp"
#include "apps/pair_count.hpp"
#include "apps/split.hpp"
#include "apps/word_count.hpp"
#include "core/replay.hpp"
#include "graph/job_graph.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "ref/conformance.hpp"
#include "ref/ref_graph.hpp"
#include "storage/mem_device.hpp"
#include "wload/teragen.hpp"
#include "wload/text_corpus.hpp"

namespace supmr::graph {
namespace {

using apps::ChainInputs;
using apps::make_chain;
using ingest::LineFormat;
using ingest::SingleDeviceSource;
using storage::MemDevice;

std::string text_corpus(std::uint64_t bytes, std::uint64_t seed) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = bytes;
  cfg.seed = seed;
  return wload::generate_text(cfg);
}

AppFactory wordcount_factory() {
  return [] { return std::make_unique<apps::WordCountApp>(); };
}

StageOptions line_stage(std::string name) {
  StageOptions opts;
  opts.name = std::move(name);
  opts.format = std::make_shared<LineFormat>();
  opts.chunk_bytes = 16 * 1024;
  return opts;
}

std::shared_ptr<SingleDeviceSource> text_source(
    const std::shared_ptr<const storage::Device>& dev) {
  return std::make_shared<SingleDeviceSource>(
      dev, std::make_shared<LineFormat>(), 16 * 1024);
}

core::ReplaySpec pmi_spec() {
  core::ReplaySpec spec;
  spec.app = "pmi";
  spec.corpus.kind = "text";
  spec.corpus.bytes = 96 * 1024;
  spec.corpus.seed = 11;
  spec.chunk_bytes = 16 * 1024;
  spec.threads = 3;
  return spec;
}

// ------------------------------------------------------------- validation

TEST(JobGraphValidation, EmptyGraphIsRejected) {
  JobGraph g;
  EXPECT_FALSE(g.topo_order().ok());
}

TEST(JobGraphValidation, RootWithoutSourceIsRejected) {
  JobGraph g;
  g.add_stage(wordcount_factory(), line_stage("root"));
  EXPECT_FALSE(g.topo_order().ok());
}

TEST(JobGraphValidation, SourcePlusInEdgeIsRejected) {
  auto dev = std::make_shared<MemDevice>(std::string("a b\n"), "mem");
  JobGraph g;
  const std::size_t a = g.add_stage(wordcount_factory(), line_stage("a"));
  const std::size_t b = g.add_stage(wordcount_factory(), line_stage("b"));
  ASSERT_TRUE(g.set_source(a, text_source(dev)).ok());
  ASSERT_TRUE(g.set_source(b, text_source(dev)).ok());
  ASSERT_TRUE(g.add_edge(a, b).ok());
  EXPECT_FALSE(g.topo_order().ok());
}

TEST(JobGraphValidation, ExactlyOneSinkRequired) {
  auto dev = std::make_shared<MemDevice>(std::string("a b\n"), "mem");
  JobGraph g;
  const std::size_t a = g.add_stage(wordcount_factory(), line_stage("a"));
  const std::size_t b = g.add_stage(wordcount_factory(), line_stage("b"));
  ASSERT_TRUE(g.set_source(a, text_source(dev)).ok());
  ASSERT_TRUE(g.set_source(b, text_source(dev)).ok());
  EXPECT_FALSE(g.topo_order().ok());  // two sinks
}

TEST(JobGraphValidation, CycleIsRejected) {
  JobGraph g;
  const std::size_t a = g.add_stage(wordcount_factory(), line_stage("a"));
  const std::size_t b = g.add_stage(wordcount_factory(), line_stage("b"));
  const std::size_t c = g.add_stage(wordcount_factory(), line_stage("c"));
  ASSERT_TRUE(g.add_edge(a, b).ok());
  ASSERT_TRUE(g.add_edge(b, c).ok());
  ASSERT_TRUE(g.add_edge(c, a).ok());
  EXPECT_FALSE(g.topo_order().ok());
}

TEST(JobGraphValidation, SelfEdgeAndUnknownStagesAreRejected) {
  JobGraph g;
  const std::size_t a = g.add_stage(wordcount_factory(), line_stage("a"));
  EXPECT_FALSE(g.add_edge(a, a).ok());
  EXPECT_FALSE(g.add_edge(a, 99).ok());
  EXPECT_FALSE(g.add_edge(99, a).ok());
  EXPECT_FALSE(g.set_source(99, nullptr).ok());
  EXPECT_FALSE(g.set_source(a, nullptr).ok());
}

// ----------------------------------------------------- pair-count helpers

TEST(PairCountHelpers, SplitLinesCutsOnlyAfterNewlines) {
  const std::string text = "one two\nthree four\nfive six\n";
  auto splits = apps::split_lines(
      std::span<const char>(text.data(), text.size()), 2);
  ASSERT_LE(splits.size(), 2u);
  std::string joined;
  for (const auto& s : splits) {
    if (!s.empty()) {
      EXPECT_EQ(s.back(), '\n');
    }
    joined.append(s.data(), s.size());
  }
  EXPECT_EQ(joined, text);
}

TEST(PairCountHelpers, PairsNeverCrossLines) {
  const std::string text = "a b c\nd e\n";
  std::vector<std::string> pairs;
  apps::for_each_pair(std::span<const char>(text.data(), text.size()),
                      [&](std::string_view p) { pairs.emplace_back(p); });
  EXPECT_EQ(pairs, (std::vector<std::string>{"a b", "b c", "d e"}));
}

// ------------------------------------------------------- chain execution

TEST(JobGraphRun, PmiMemoryHandoffMatchesOracle) {
  const std::string data = text_corpus(96 * 1024, 11);
  ChainInputs inputs;
  inputs.device = std::make_shared<MemDevice>(data, "corpus");
  auto graph_or = make_chain(pmi_spec(), inputs);
  ASSERT_TRUE(graph_or.ok()) << graph_or.status().to_string();

  auto sut = run_graph(*graph_or);
  ASSERT_TRUE(sut.ok()) << sut.status().to_string();
  EXPECT_EQ(sut->stages.size(), 3u);
  EXPECT_GT(sut->handoff_bytes, 0u);
  EXPECT_EQ(sut->spill_files, 0u);

  auto oracle = ref::run_graph(*graph_or);
  ASSERT_TRUE(oracle.ok()) << oracle.status().to_string();
  EXPECT_FALSE(sut->final_output.empty());
  EXPECT_EQ(sut->final_output, oracle->canonical);
}

TEST(JobGraphRun, FileHandoffIsByteIdenticalToMemory) {
  const std::string data = text_corpus(64 * 1024, 5);
  ChainInputs inputs;
  inputs.device = std::make_shared<MemDevice>(data, "corpus");
  auto graph_or = make_chain(pmi_spec(), inputs);
  ASSERT_TRUE(graph_or.ok()) << graph_or.status().to_string();

  auto mem = run_graph(*graph_or);
  ASSERT_TRUE(mem.ok()) << mem.status().to_string();

  GraphOptions file_opts;
  file_opts.handoff = core::GraphHandoff::kFile;
  auto file = run_graph(*graph_or, file_opts);
  ASSERT_TRUE(file.ok()) << file.status().to_string();

  EXPECT_EQ(mem->final_output, file->final_output);
  EXPECT_EQ(mem->spill_files, 0u);
  // Spills are per consuming stage (upstream payloads are concatenated
  // before the handoff decision): the pmi join is the only interior stage.
  EXPECT_EQ(file->spill_files, 1u);
  EXPECT_GT(file->spill_bytes, 0u);
}

TEST(JobGraphRun, TinyBudgetForcesSpillWithoutChangingBytes) {
  const std::string data = text_corpus(64 * 1024, 7);
  ChainInputs inputs;
  inputs.device = std::make_shared<MemDevice>(data, "corpus");
  auto graph_or = make_chain(pmi_spec(), inputs);
  ASSERT_TRUE(graph_or.ok()) << graph_or.status().to_string();

  auto mem = run_graph(*graph_or);
  ASSERT_TRUE(mem.ok()) << mem.status().to_string();

  GraphOptions tiny;
  tiny.memory_budget = 1;  // every handoff exceeds this
  auto spilled = run_graph(*graph_or, tiny);
  ASSERT_TRUE(spilled.ok()) << spilled.status().to_string();
  EXPECT_GT(spilled->spill_files, 0u);
  EXPECT_EQ(mem->final_output, spilled->final_output);
}

TEST(JobGraphRun, ThrottledSpillIsByteIdenticalToMemory) {
  // spill_bps emulates a disk-class spill device (write + re-ingest charged
  // against one RateLimiter). It changes only wall clock, never bytes; the
  // rate here is high enough that the test's ~100KB edge adds no real delay.
  const std::string data = text_corpus(64 * 1024, 7);
  ChainInputs inputs;
  inputs.device = std::make_shared<MemDevice>(data, "corpus");
  auto graph_or = make_chain(pmi_spec(), inputs);
  ASSERT_TRUE(graph_or.ok()) << graph_or.status().to_string();

  auto mem = run_graph(*graph_or);
  ASSERT_TRUE(mem.ok()) << mem.status().to_string();

  GraphOptions throttled;
  throttled.handoff = core::GraphHandoff::kFile;
  throttled.spill_bps = 1e9;
  auto spilled = run_graph(*graph_or, throttled);
  ASSERT_TRUE(spilled.ok()) << spilled.status().to_string();
  EXPECT_GT(spilled->spill_files, 0u);
  EXPECT_GT(spilled->spill_bytes, 0u);
  EXPECT_EQ(mem->final_output, spilled->final_output);
}

TEST(JobGraphRun, TfIdfChainMatchesOracle) {
  wload::TextCorpusConfig tcfg;
  tcfg.seed = 3;
  auto files = wload::generate_text_files(tcfg, 5, 8 * 1024);
  ChainInputs inputs;
  inputs.files.assign(files.begin(), files.end());

  core::ReplaySpec spec;
  spec.app = "tfidf";
  spec.corpus.kind = "multi-text";
  spec.threads = 3;
  spec.files_per_chunk = 2;
  auto graph_or = make_chain(spec, inputs);
  ASSERT_TRUE(graph_or.ok()) << graph_or.status().to_string();

  auto sut = run_graph(*graph_or);
  ASSERT_TRUE(sut.ok()) << sut.status().to_string();
  auto oracle = ref::run_graph(*graph_or);
  ASSERT_TRUE(oracle.ok()) << oracle.status().to_string();
  EXPECT_FALSE(sut->final_output.empty());
  EXPECT_EQ(sut->final_output, oracle->canonical);
}

TEST(JobGraphRun, MultiRoundSortChainMatchesOracle) {
  wload::TeraGenConfig tcfg;
  tcfg.num_records = 600;
  tcfg.seed = 9;
  const std::string data = wload::teragen_to_string(tcfg);
  ChainInputs inputs;
  inputs.device = std::make_shared<MemDevice>(data, "tera");

  core::ReplaySpec spec;
  spec.app = "msort";
  spec.corpus.kind = "terasort";
  spec.threads = 3;
  spec.chunk_bytes = 100 * 64;  // record-aligned chunks -> several rounds
  auto graph_or = make_chain(spec, inputs);
  ASSERT_TRUE(graph_or.ok()) << graph_or.status().to_string();

  auto sut = run_graph(*graph_or);
  ASSERT_TRUE(sut.ok()) << sut.status().to_string();
  auto oracle = ref::run_graph(*graph_or);
  ASSERT_TRUE(oracle.ok()) << oracle.status().to_string();
  EXPECT_EQ(sut->final_output.size(), data.size());
  EXPECT_EQ(sut->final_output, oracle->canonical);
}

// ------------------------------------------------- conformance routing

TEST(GraphConformance, PmiCellPasses) {
  auto outcome = ref::run_cell(pmi_spec());
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  EXPECT_TRUE(outcome->match) << outcome->diff;
  EXPECT_EQ(outcome->graph_stages, 3u);
  EXPECT_GT(outcome->graph_handoff_bytes, 0u);
  EXPECT_EQ(outcome->graph_spill_files, 0u);
}

TEST(GraphConformance, ForcedSpillCellPassesAndReportsSpill) {
  core::ReplaySpec spec = pmi_spec();
  spec.graph_budget = 1;
  auto outcome = ref::run_cell(spec);
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  EXPECT_TRUE(outcome->match) << outcome->diff;
  EXPECT_GT(outcome->graph_spill_files, 0u);
  EXPECT_GT(outcome->graph_spill_bytes, 0u);
}

TEST(GraphConformance, GraphCellsRejectFaultsAndAdaptive) {
  core::ReplaySpec spec = pmi_spec();
  spec.fault_plan = "seed=7;transient=0.05";
  EXPECT_FALSE(ref::run_cell(spec).ok());
  spec = pmi_spec();
  spec.mode = core::ExecMode::kAdaptive;
  EXPECT_FALSE(ref::run_cell(spec).ok());
  spec = pmi_spec();
  spec.app = "tfidf";  // but corpus kind still "text"
  EXPECT_FALSE(ref::run_cell(spec).ok());
}

TEST(GraphConformance, GraphSpecJsonRoundTrips) {
  core::ReplaySpec spec = pmi_spec();
  spec.graph_handoff = core::GraphHandoff::kFile;
  spec.graph_budget = 12345;
  auto parsed = core::ReplaySpec::from_json(spec.to_json());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->app, "pmi");
  EXPECT_EQ(parsed->graph_handoff, core::GraphHandoff::kFile);
  EXPECT_EQ(parsed->graph_budget, 12345u);
}

}  // namespace
}  // namespace supmr::graph
