// Perfmodel tests: the paper-scale simulation must reproduce the SHAPE of
// every table and figure — who wins, by roughly what factor, where the
// crossovers fall. Tolerances are deliberately loose on absolute seconds
// (the substrate is a model, not the authors' testbed) and tight on
// orderings and ratios.
#include <gtest/gtest.h>

#include "perfmodel/experiments.hpp"

namespace supmr::perfmodel {
namespace {

// Tables are addressed by row label ("none", "1GB", "50GB", "1GB+part"), not
// position: experiments grow rows over time and positional indexing made
// these tests break for unrelated additions.
const Table2Row* find_row(const std::vector<Table2Row>& rows,
                          const std::string& label) {
  for (const auto& r : rows) {
    if (r.label == label) return &r;
  }
  return nullptr;
}

#define ASSERT_ROW(var, rows, label)                       \
  const Table2Row* var = find_row(rows, label);            \
  ASSERT_NE(var, nullptr) << "missing table row " << label

// ------------------------------------------------------------- Table II

TEST(Table2WordCount, BaselineMatchesPaperClosely) {
  // The "none" row is where the model is calibrated; it must land near the
  // paper's numbers (471.75 / 403.90 / 67.41 / 0.03 / 0.01).
  auto rows = table2_wordcount();
  ASSERT_ROW(none_row, rows, "none");
  const auto& none = none_row->result.phases;
  EXPECT_NEAR(none.total_s, 471.75, 5.0);
  EXPECT_NEAR(none.read_s, 403.90, 4.0);
  EXPECT_NEAR(none.map_s, 67.41, 2.0);
  EXPECT_LT(none.reduce_s, 1.0);
  EXPECT_LT(none.merge_s, 1.0);
}

TEST(Table2WordCount, ChunkingSpeedsUpInPaperBand) {
  auto rows = table2_wordcount();
  ASSERT_ROW(none_row, rows, "none");
  ASSERT_ROW(gb1_row, rows, "1GB");
  ASSERT_ROW(gb50_row, rows, "50GB");
  const double none = none_row->result.phases.total_s;
  const double gb1 = gb1_row->result.phases.total_s;
  const double gb50 = gb50_row->result.phases.total_s;
  // Ordering: 1GB fastest, then 50GB, then none (paper: 407 < 429 < 471).
  EXPECT_LT(gb1, gb50);
  EXPECT_LT(gb50, none);
  // Speedups: paper reports 1.16x (1GB) and 1.10x (50GB).
  EXPECT_NEAR(none / gb1, 1.16, 0.06);
  EXPECT_NEAR(none / gb50, 1.10, 0.06);
}

TEST(Table2WordCount, CombinedReadMapNearIngestTime) {
  // Word count is ingest-bound: the pipelined read+map phase collapses to
  // roughly the raw ingest time (406.14s in the paper vs 403.90s read).
  auto rows = table2_wordcount();
  ASSERT_ROW(gb1_row, rows, "1GB");
  const auto& gb1 = gb1_row->result.phases;
  ASSERT_TRUE(gb1.has_combined_readmap);
  EXPECT_NEAR(gb1.readmap_s, 406.0, 8.0);
}

TEST(Table2WordCount, RoundCountsMatchChunkPlan) {
  auto rows = table2_wordcount();
  ASSERT_ROW(none, rows, "none");
  ASSERT_ROW(gb1, rows, "1GB");
  ASSERT_ROW(gb50, rows, "50GB");
  EXPECT_EQ(none->result.map_rounds, 1u);
  EXPECT_EQ(gb1->result.map_rounds, 155u);   // 155 GB / 1 GB
  EXPECT_EQ(gb50->result.map_rounds, 4u);    // 155 GB / 50 GB (short tail)
}

TEST(Table2Sort, BaselineMatchesPaperClosely) {
  // Paper: 397.31 / 182.78 / 6.33 / 7.72 / 191.23. Rows: none (pairwise),
  // 1GB (p-way).
  auto rows = table2_sort();
  ASSERT_ROW(none_row, rows, "none");
  const auto& none = none_row->result.phases;
  EXPECT_NEAR(none.total_s, 397.31, 4.0);
  EXPECT_NEAR(none.read_s, 182.78, 2.0);
  EXPECT_NEAR(none.map_s, 6.33, 1.0);
  EXPECT_NEAR(none.reduce_s, 7.72, 1.0);
  EXPECT_NEAR(none.merge_s, 191.23, 2.0);
}

TEST(Table2Sort, SupMRSpeedupInPaperBand) {
  auto rows = table2_sort();
  ASSERT_ROW(none_row, rows, "none");
  ASSERT_ROW(gb1_row, rows, "1GB");
  const auto& none = none_row->result.phases;
  const auto& gb1 = gb1_row->result.phases;
  // Time-to-result speedup: paper 1.46x.
  EXPECT_NEAR(none.total_s / gb1.total_s, 1.46, 0.12);
  // Merge speedup: paper 3.12x-3.13x.
  EXPECT_NEAR(none.merge_s / gb1.merge_s, 3.1, 0.35);
  // The p-way merge is a single round vs 6 pairwise rounds.
  EXPECT_EQ(none_row->result.merge_rounds, 6u);
  EXPECT_EQ(gb1_row->result.merge_rounds, 1u);
}

TEST(Table2Sort, IngestOverlapGainSmallForSort) {
  // Sort's map phase is tiny, so the ingest pipeline gains little in the
  // combined read+map phase (paper: 189.11s unchunked -> 196.86s; i.e. the
  // gain comes from the merge, not the ingest overlap).
  auto rows = table2_sort();
  ASSERT_ROW(none_row, rows, "none");
  ASSERT_ROW(gb1_row, rows, "1GB");
  const auto& none = none_row->result.phases;
  const auto& gb1 = gb1_row->result.phases;
  const double unchunked_readmap = none.read_s + none.map_s;
  EXPECT_NEAR(gb1.readmap_s, unchunked_readmap, 10.0);
}

// ----------------------------------------------------------------- Fig. 1

TEST(Fig1, ComputeIsSmallFractionOfJob) {
  // "the actual compute phase takes less than 25% of the total execution
  // time" — map+reduce vs total.
  auto r = fig1_sort_baseline();
  const double compute = r.phases.map_s + r.phases.reduce_s;
  EXPECT_LT(compute / r.phases.total_s, 0.25);
}

TEST(Fig1, MergeStepCurveDecays) {
  // Utilization within the merge window decays as rounds halve their
  // workers: compare utilization early vs late in the merge phase.
  auto r = fig1_sort_baseline();
  const double merge_begin = r.phases.read_s + r.phases.map_s +
                             r.phases.reduce_s;
  const double merge_end = merge_begin + r.phases.merge_s;
  const auto& trace = r.trace;
  double early = 0, late = 0;
  int early_n = 0, late_n = 0;
  const double mid = merge_begin + (merge_end - merge_begin) / 2;
  for (std::size_t i = 0; i < trace.samples(); ++i) {
    const double t = trace.time(i);
    if (t < merge_begin || t >= merge_end) continue;
    if (t < mid) {
      early += trace.value(i, 0);
      ++early_n;
    } else {
      late += trace.value(i, 0);
      ++late_n;
    }
  }
  ASSERT_GT(early_n, 0);
  ASSERT_GT(late_n, 0);
  EXPECT_GT(early / early_n, 2.0 * (late / late_n));
}

TEST(Fig1, IngestPhaseShowsIoWait) {
  auto r = fig1_sort_baseline();
  const auto& trace = r.trace;
  // During the first half of the read phase, iowait is present and user CPU
  // is low.
  double user = 0, iowait = 0;
  int n = 0;
  for (std::size_t i = 0; i < trace.samples(); ++i) {
    if (trace.time(i) > r.phases.read_s * 0.5) break;
    user += trace.value(i, 0);
    iowait += trace.value(i, 2);
    ++n;
  }
  ASSERT_GT(n, 0);
  EXPECT_LT(user / n, 20.0);
  EXPECT_GT(iowait / n, 0.5);
}

// ----------------------------------------------------------------- Fig. 3

TEST(Fig3, OpenMpComputesFasterButFinishesSlower) {
  auto fig = fig3_openmp_vs_mapreduce();
  // Compute phase: OpenMP's parallel sort beats the MR compute phases...
  EXPECT_LT(fig.openmp_compute_s, fig.mapreduce_compute_s);
  // ...but sequential ingest+parse makes its time-to-result worse.
  EXPECT_GT(fig.openmp.total_s, fig.mapreduce.phases.total_s);
  // The parse phase is the culprit: single-threaded map work.
  EXPECT_GT(fig.openmp.map_s, 10.0 * fig.mapreduce.phases.map_s);
}

// ----------------------------------------------------------------- Fig. 5

// fig5_wordcount_traces() rows are (label, result) pairs; same
// label-addressing rule as the tables.
template <typename Traces>
const typename Traces::value_type::second_type* find_trace(
    const Traces& traces, const std::string& label) {
  for (const auto& t : traces) {
    if (t.first == label) return &t.second;
  }
  return nullptr;
}

TEST(Fig5, SmallChunksGiveDenserUtilization) {
  auto traces = fig5_wordcount_traces();
  const auto* none = find_trace(traces, "none");
  const auto* gb1 = find_trace(traces, "1GB");
  const auto* gb50 = find_trace(traces, "50GB");
  ASSERT_NE(none, nullptr);
  ASSERT_NE(gb1, nullptr);
  ASSERT_NE(gb50, nullptr);
  const double util_none = none->mean_utilization;
  const double util_1gb = gb1->mean_utilization;
  const double util_50gb = gb50->mean_utilization;
  // Chunking raises overall utilization; smaller chunks raise it more
  // (paper §VI.C.1: "small chunks have higher utilization and better
  // performance").
  EXPECT_GT(util_1gb, util_none);
  EXPECT_GE(util_1gb, util_50gb);
  EXPECT_GT(util_50gb, util_none * 0.99);
}

TEST(Fig5, ChunkedTraceHasManySpikes) {
  auto traces = fig5_wordcount_traces();
  // Count user-channel spikes (rising edges above a threshold).
  auto spikes = [](const TimeSeries& t) {
    int count = 0;
    bool above = false;
    for (std::size_t i = 0; i < t.samples(); ++i) {
      const bool now_above = t.value(i, 0) > 30.0;
      if (now_above && !above) ++count;
      above = now_above;
    }
    return count;
  };
  const auto* none = find_trace(traces, "none");
  const auto* gb50 = find_trace(traces, "50GB");
  ASSERT_NE(none, nullptr);
  ASSERT_NE(gb50, nullptr);
  const int none_spikes = spikes(none->trace);
  const int gb50_spikes = spikes(gb50->trace);
  EXPECT_LE(none_spikes, 2);       // one big compute spike at the end
  EXPECT_GE(gb50_spikes, 3);       // one spike per 50 GB chunk
}

// ----------------------------------------------------------------- Fig. 6

TEST(Fig6, PwayMergeIsOneHighUtilizationRound) {
  auto supmr = fig6_sort_pway();
  EXPECT_EQ(supmr.merge_rounds, 1u);
  // Utilization during the merge window stays high throughout.
  const double merge_begin = supmr.phases.readmap_s + supmr.phases.reduce_s;
  const double merge_end = merge_begin + supmr.phases.merge_s;
  const auto& trace = supmr.trace;
  double user = 0;
  int n = 0;
  for (std::size_t i = 0; i < trace.samples(); ++i) {
    const double t = trace.time(i);
    if (t < merge_begin + 1 || t >= merge_end - 1) continue;
    user += trace.value(i, 0);
    ++n;
  }
  ASSERT_GT(n, 0);
  EXPECT_GT(user / n, 90.0);
}

TEST(Fig6, FasterThanFig1Baseline) {
  auto baseline = fig1_sort_baseline();
  auto supmr = fig6_sort_pway();
  EXPECT_LT(supmr.phases.total_s, baseline.phases.total_s);
  EXPECT_NEAR(baseline.phases.merge_s / supmr.phases.merge_s, 3.1, 0.35);
}

// ----------------------------------------------------------------- Fig. 7

TEST(Fig7, HighUtilizationButSmallSpeedup) {
  auto fig = fig7_hdfs_casestudy();
  // SupMR wins, but only by seconds (paper: 7s on a ~250s job), because the
  // map phase is a tiny fraction of the link-bound ingest.
  EXPECT_GT(fig.speedup_s, 1.0);
  EXPECT_LT(fig.speedup_s, 30.0);
  EXPECT_LT(fig.speedup_s / fig.original.phases.total_s, 0.10);
  // The pipeline achieves higher utilization during ingest nonetheless.
  EXPECT_GT(fig.supmr.mean_utilization, fig.original.mean_utilization);
}

TEST(Fig7, LinkBoundIngestDominates) {
  auto fig = fig7_hdfs_casestudy();
  // 30 GB over 125 MB/s ~ 240 s of ingest on a ~250 s job.
  EXPECT_GT(fig.original.phases.read_s / fig.original.phases.total_s, 0.85);
}

// -------------------------------------------------------------- ablations

TEST(ChunkSweep, UtilizationRisesAsChunksShrink) {
  auto d = wload::paper_wordcount_dataset();
  auto points = chunk_size_sweep(wordcount_model(d), d,
                                 core::MergeMode::kPWay,
                                 {50 * kGB, 10 * kGB, 1 * kGB, 250 * kMB});
  ASSERT_EQ(points.size(), 4u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].mean_utilization,
              points[i - 1].mean_utilization - 0.5)
        << "utilization should not drop as chunks shrink (i=" << i << ")";
    EXPECT_GT(points[i].threads_spawned, points[i - 1].threads_spawned);
  }
}

TEST(ChunkSweep, TinyChunksPayThreadOverhead) {
  // Conclusion 2: benefit depends on chunk size — far below the sweet spot,
  // per-round thread costs erode the gain.
  auto d = wload::paper_sort_dataset();
  auto points = chunk_size_sweep(sort_model(d), d, core::MergeMode::kPWay,
                                 {1 * kGB, 10 * kMB});
  ASSERT_EQ(points.size(), 2u);
  // 6000 rounds of thread spawn/join cost real time vs 60 rounds.
  EXPECT_GT(points[1].total_s, points[0].total_s);
}

TEST(FaninSweep, PairwiseGrowsLogarithmicallyPwayFlat) {
  auto d = wload::paper_sort_dataset();
  auto points = merge_fanin_sweep(sort_model(d), d, {4, 16, 64});
  ASSERT_EQ(points.size(), 3u);
  // Pairwise merge time scales with log2(runs): 2, 4, 6 rounds.
  EXPECT_NEAR(points[1].pairwise_merge_s / points[0].pairwise_merge_s, 2.0,
              0.1);
  EXPECT_NEAR(points[2].pairwise_merge_s / points[0].pairwise_merge_s, 3.0,
              0.1);
  // P-way merge is a single pass regardless of fan-in.
  EXPECT_NEAR(points[2].pway_merge_s, points[0].pway_merge_s,
              0.05 * points[0].pway_merge_s);
  // Crossover: pairwise only competitive at trivial fan-in.
  EXPECT_GT(points[2].pairwise_merge_s, points[2].pway_merge_s);
}

// ------------------------------------------------------------ conservation

TEST(SimJob, TraceUtilizationBounded) {
  auto rows = table2_sort();
  for (const auto& row : rows) {
    const auto& trace = row.result.trace;
    for (std::size_t i = 0; i < trace.samples(); ++i) {
      EXPECT_GE(trace.row_sum(i), -1e-6);
      EXPECT_LE(trace.row_sum(i), 100.0 + 1e-6);
    }
  }
}

TEST(SimJob, PhasesSumBelowTotal) {
  for (const auto& row : table2_wordcount()) {
    const auto& p = row.result.phases;
    const double compute = p.has_combined_readmap
                               ? p.readmap_s
                               : p.read_s + p.map_s;
    EXPECT_LE(compute + p.reduce_s + p.merge_s, p.total_s + 1e-6);
  }
}


// --------------------------------------------------- scaling ablations

TEST(ContextScaling, OriginalFlattensAtIngestFloor) {
  // Amdahl on the serial ingest: with the 384 MB/s channel fixed, adding
  // contexts cannot push word count below the ~404 s transfer time.
  auto d = wload::paper_wordcount_dataset();
  const double floor_s = double(d.total_bytes) / paper_machine().disk_bw_bps;
  for (int contexts : {8, 32, 128}) {
    SimJobSpec spec;
    spec.machine = paper_machine();
    spec.machine.contexts = contexts;
    spec.num_mappers = std::size_t(contexts);
    spec.dataset = d;
    spec.app = wordcount_model(d);
    spec.chunk_bytes = 0;
    spec.merge_mode = core::MergeMode::kPairwise;
    EXPECT_GT(simulate_job(spec).phases.total_s, floor_s);
  }
}

TEST(ContextScaling, SupMRApproachesIngestFloor) {
  auto d = wload::paper_wordcount_dataset();
  const double floor_s = double(d.total_bytes) / paper_machine().disk_bw_bps;
  SimJobSpec spec;
  spec.machine = paper_machine();
  spec.machine.contexts = 128;
  spec.num_mappers = 128;
  spec.dataset = d;
  spec.app = wordcount_model(d);
  spec.chunk_bytes = 1 * kGB;
  spec.merge_mode = core::MergeMode::kPWay;
  const double total = simulate_job(spec).phases.total_s;
  EXPECT_LT(total, floor_s * 1.01);  // fully hidden compute
}

TEST(DiskBandwidth, WordCountSpeedupPeaksAtBalance) {
  // The overlap gain is min(ingest, map)/total-ish: it peaks where the two
  // phases are balanced and decays on both sides.
  auto d = wload::paper_wordcount_dataset();
  auto run_speedup = [&](double bw) {
    SimJobSpec spec;
    spec.machine = paper_machine();
    spec.machine.disk_bw_bps = bw;
    spec.dataset = d;
    spec.app = wordcount_model(d);
    spec.chunk_bytes = 0;
    spec.merge_mode = core::MergeMode::kPairwise;
    const double original = simulate_job(spec).phases.total_s;
    spec.chunk_bytes = 1 * kGB;
    spec.merge_mode = core::MergeMode::kPWay;
    return original / simulate_job(spec).phases.total_s;
  };
  const double slow = run_speedup(128e6);   // ingest-dominated
  const double mid = run_speedup(2.3e9);    // ingest ~ map
  const double fast = run_speedup(12e9);    // compute-dominated
  EXPECT_GT(mid, slow);
  EXPECT_GT(mid, fast);
}

TEST(DiskBandwidth, SortMergeGainSurvivesFastDevices) {
  auto d = wload::paper_sort_dataset();
  SimJobSpec spec;
  spec.machine = paper_machine();
  spec.machine.disk_bw_bps = 12e9;  // NVMe RAID
  spec.dataset = d;
  spec.app = sort_model(d);
  spec.chunk_bytes = 0;
  spec.merge_mode = core::MergeMode::kPairwise;
  const double original = simulate_job(spec).phases.total_s;
  spec.chunk_bytes = 1 * kGB;
  spec.merge_mode = core::MergeMode::kPWay;
  const double supmr = simulate_job(spec).phases.total_s;
  EXPECT_GT(original / supmr, 1.8);  // the merge win is device-independent
}

}  // namespace
}  // namespace supmr::perfmodel
