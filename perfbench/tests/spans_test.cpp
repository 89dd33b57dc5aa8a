// Span arithmetic on hand-built span lists: derived waves and stalls,
// parent links, self time, wave idle fraction and unattributed time.
#include "spans.hpp"

#include <gtest/gtest.h>

namespace supmr::perfbench {
namespace {

namespace sn = span_name;

Span span(const char* name, double start, double end, int thread,
          int round = -1) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.thread = thread;
  s.job = 0;
  s.round = round;
  return s;
}

int find(const std::vector<Span>& spans, const char* name, int round = -1,
         int node = -1) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name && spans[i].round == round &&
        spans[i].node == node) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// One job, two rounds, two mapper threads. Coordinator is thread 0, the
// ingest producer thread 1, the pool threads 2 and 3.
std::vector<Span> single_job() {
  return {
      span(sn::kJob, 0.0, 10.0, 0),
      span(sn::kInit, 0.5, 1.0, 0),
      span(sn::kPlan, 1.0, 1.5, 0),
      span(sn::kRead, 1.5, 2.5, 1),
      span(sn::kRead, 3.0, 4.0, 1),
      span(sn::kPrepare, 2.5, 3.0, 0, 0),
      span(sn::kMapTask, 3.0, 5.0, 2, 0),
      span(sn::kMapTask, 3.0, 4.0, 3, 0),
      span(sn::kPrepare, 5.5, 6.0, 0, 1),
      span(sn::kMapTask, 6.0, 7.0, 2, 1),
      span(sn::kMapTask, 6.0, 7.0, 3, 1),
      span(sn::kReduce, 7.5, 8.0, 0),
      span(sn::kMerge, 8.0, 9.5, 0),
  };
}

std::vector<Span> linked(std::vector<Span> spans) {
  add_derived_spans(spans);
  link_parents(spans);
  return spans;
}

TEST(Covered, UnionClippedToWindow) {
  EXPECT_DOUBLE_EQ(covered({{0, 2}, {1, 3}, {5, 6}}, 0, 10), 4.0);
  EXPECT_DOUBLE_EQ(covered({{0, 2}, {1, 3}, {5, 6}}, 1.5, 5.5), 2.0);
  EXPECT_DOUBLE_EQ(covered({}, 0, 1), 0.0);
}

TEST(DerivedSpans, WavesRunFromPrepareToLastMapTask) {
  const std::vector<Span> spans = linked(single_job());
  const int w0 = find(spans, sn::kWave, 0);
  const int w1 = find(spans, sn::kWave, 1);
  ASSERT_GE(w0, 0);
  ASSERT_GE(w1, 0);
  EXPECT_DOUBLE_EQ(spans[w0].start, 3.0);
  EXPECT_DOUBLE_EQ(spans[w0].end, 5.0);
  EXPECT_DOUBLE_EQ(spans[w1].start, 6.0);
  EXPECT_DOUBLE_EQ(spans[w1].end, 7.0);
  EXPECT_EQ(spans[w0].thread, 0);
  EXPECT_DOUBLE_EQ(total(spans, 0, sn::kWave), 3.0);
}

TEST(DerivedSpans, StallIsCoordinatorGapBetweenPlanAndReduce) {
  const std::vector<Span> spans = linked(single_job());
  // Gaps: plan end 1.5 -> prepare 2.5, wave end 5.0 -> prepare 5.5, and
  // wave end 7.0 -> reduce 7.5.
  EXPECT_DOUBLE_EQ(total(spans, 0, sn::kStall), 2.0);
}

TEST(DerivedSpans, StallWindowStartsAtInitWithoutAPlan) {
  std::vector<Span> spans = single_job();
  spans.erase(spans.begin() + 2);  // the plan
  spans = linked(spans);
  EXPECT_DOUBLE_EQ(total(spans, 0, sn::kStall), 2.5);
}

TEST(LinkParents, ContainmentThenWaveThenContext) {
  const std::vector<Span> spans = linked(single_job());
  const int job = find(spans, sn::kJob);
  EXPECT_EQ(spans[job].parent, -1);
  EXPECT_EQ(spans[find(spans, sn::kPrepare, 0)].parent, job);
  // The producer's reads are on another thread: they hang off the job.
  EXPECT_EQ(spans[find(spans, sn::kRead)].parent, job);
  EXPECT_EQ(spans[find(spans, sn::kMapTask, 1)].parent,
            find(spans, sn::kWave, 1));
}

TEST(SelfTime, ExcludesSameThreadChildrenOnly) {
  const std::vector<Span> spans = linked(single_job());
  // Coordinator children cover [0.5, 9.5]; the reads on thread 1 do not
  // count.
  EXPECT_DOUBLE_EQ(self_time(spans, find(spans, sn::kJob)), 1.0);
  EXPECT_DOUBLE_EQ(self_time(spans, find(spans, sn::kWave, 0)), 2.0);
}

TEST(WaveIdleFrac, MapTaskSecondsOverWidthTimesWaves) {
  const std::vector<Span> spans = linked(single_job());
  // 5 thread-seconds of map tasks in 3 s of waves at width 2.
  EXPECT_DOUBLE_EQ(wave_idle_frac(spans, 0, 2), 1.0 - 5.0 / 6.0);
  EXPECT_DOUBLE_EQ(wave_idle_frac({}, 0, 2), 0.0);
}

TEST(Unattributed, SingleJobIsJobSelfTime) {
  const std::vector<Span> spans = linked(single_job());
  EXPECT_DOUBLE_EQ(unattributed(spans, 0), 1.0);
}

TEST(Unattributed, GraphCountsStagesNotHandoff) {
  std::vector<Span> spans = {
      span(sn::kGraphRun, 0.0, 10.0, 0),
      span(sn::kStage, 1.0, 4.0, 0),
      span(sn::kInit, 1.5, 2.0, 0),
      span(sn::kReduce, 2.0, 3.0, 0),
      span(sn::kMerge, 3.0, 3.5, 0),
      span(sn::kSerialize, 4.0, 5.0, 0),
      span(sn::kStage, 5.0, 9.0, 0),
      span(sn::kInit, 5.0, 9.0, 0),
  };
  spans[1].stage = 0;
  spans[2].stage = 0;
  spans[3].stage = 0;
  spans[4].stage = 0;
  spans[5].stage = 0;
  spans[6].stage = 1;
  spans[7].stage = 1;
  spans = linked(spans);
  // Stage 0 leaves [1.0, 1.5] and [3.5, 4.0] uncovered; stage 1 nothing.
  EXPECT_DOUBLE_EQ(unattributed(spans, 0), 1.0);
  // Handoff: the graph run outside stages and serialization.
  EXPECT_DOUBLE_EQ(self_time(spans, 0), 10.0 - 3.0 - 1.0 - 4.0);
  EXPECT_EQ(spans[find(spans, sn::kSerialize)].parent, 0);
}

TEST(Cluster, IntervalsTileTheRunAndTheLastNodeIsCritical) {
  // Node 0 on thread 1 (pool thread 2); node 1 on thread 3 (pool thread 4).
  std::vector<Span> spans = {
      span(sn::kClusterRun, 0.0, 10.0, 0),
      span(sn::kInit, 2.0, 3.0, 1),
      span(sn::kPrepare, 3.0, 3.5, 1, 0),
      span(sn::kMapTask, 3.5, 5.0, 2, 0),
      span(sn::kReduce, 5.0, 6.0, 1),
      span(sn::kMerge, 6.0, 7.0, 1),
      span(sn::kSerialize, 7.0, 7.2, 1),
      span(sn::kInit, 2.5, 3.0, 3),
      span(sn::kPrepare, 3.0, 3.2, 3, 0),
      span(sn::kMapTask, 3.2, 4.0, 4, 0),
      span(sn::kReduce, 4.0, 4.5, 3),
      span(sn::kMerge, 4.5, 4.8, 3),
      span(sn::kSerialize, 5.0, 8.0, 3),
  };
  for (std::size_t i = 1; i < spans.size(); ++i) spans[i].node = i < 7 ? 0 : 1;
  spans = linked(spans);
  EXPECT_DOUBLE_EQ(total(spans, 0, sn::kClusterSlice), 2.0);
  EXPECT_DOUBLE_EQ(total(spans, 0, sn::kClusterNodes), 6.0);
  EXPECT_DOUBLE_EQ(total(spans, 0, sn::kClusterShuffle), 2.0);
  const int node1 = find(spans, sn::kClusterNode, -1, 1);
  ASSERT_GE(node1, 0);
  EXPECT_DOUBLE_EQ(spans[node1].start, 2.5);
  EXPECT_DOUBLE_EQ(spans[node1].end, 8.0);
  EXPECT_EQ(spans[find(spans, sn::kInit, -1, 1)].parent, node1);
  // Node 1 ends last; its only uncovered gap is merge end -> serialize.
  EXPECT_NEAR(unattributed(spans, 0), 0.2, 1e-12);
}

}  // namespace
}  // namespace supmr::perfbench
