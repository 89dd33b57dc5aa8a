// Differential lattice for the chained graph apps (docs/graphs.md): every
// chain (pmi, tfidf, msort) runs across the mode × merge × io cross — the
// stage geometry axes — and across the handoff axis (in-memory edges, file
// edges, and a 1-byte budget that forces every edge to spill), and each
// cell's sink output must be byte-equal to ref::run_graph. A diverging cell
// writes a self-contained repro spec replayable with `supmr graph --spec=`
// (or `supmr replay`).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tests/harness/harness_util.hpp"

namespace supmr::harness {
namespace {

struct Axis {
  core::ExecMode mode;
  core::MergeMode merge;
  core::IoMode io;
};

std::vector<Axis> stage_cross() {
  std::vector<Axis> axes;
  for (core::ExecMode mode :
       {core::ExecMode::kOriginal, core::ExecMode::kIngestMR}) {
    for (core::MergeMode merge :
         {core::MergeMode::kPairwise, core::MergeMode::kPWay}) {
      for (core::IoMode io : {core::IoMode::kRead, core::IoMode::kMmap}) {
        axes.push_back({mode, merge, io});
      }
    }
  }
  return axes;
}

void run_graph_lattice(const core::ReplaySpec& base,
                       const std::string& app_label) {
  for (const Axis& axis : stage_cross()) {
    core::ReplaySpec spec = base;
    spec.mode = axis.mode;
    spec.merge_mode = axis.merge;
    spec.io = axis.io;
    expect_cell(spec, app_label + "-" +
                          std::string(core::exec_mode_name(axis.mode)) + "-" +
                          std::string(core::merge_mode_name(axis.merge)) +
                          "-" + std::string(core::io_mode_name(axis.io)));
  }
}

// The handoff axis at the default stage geometry: memory edges, file edges,
// and a forced spill (1-byte budget, so every interior payload spills). The
// forced-spill cell additionally asserts the executor really took the spill
// path — a silently-in-memory "spill" cell would prove nothing.
void run_handoff_axis(const core::ReplaySpec& base,
                      const std::string& app_label) {
  {
    core::ReplaySpec spec = base;
    spec.graph_handoff = core::GraphHandoff::kFile;
    expect_cell(spec, app_label + "-handoff-file");
  }
  {
    core::ReplaySpec spec = base;
    spec.graph_budget = 1;
    auto outcome = ref::run_cell(spec);
    ASSERT_TRUE(outcome.ok())
        << app_label << "-forced-spill: " << outcome.status().to_string();
    EXPECT_GT(outcome->graph_spill_files, 0u)
        << app_label << "-forced-spill: budget=1 cell never spilled";
    if (!outcome->match) {
      auto path =
          ref::write_repro(spec, repro_dir(),
                           sanitize(app_label + "-forced-spill"));
      ADD_FAILURE() << app_label
                    << "-forced-spill diverged from the reference:\n"
                    << outcome->diff << "\nreproduce with: supmr replay "
                    << (path.ok() ? *path
                                  : "<repro write failed: " +
                                        path.status().to_string() + ">");
    }
  }
}

TEST(GraphConformanceLattice, Pmi) {
  run_graph_lattice(spec_pmi(31), "pmi");
  run_handoff_axis(spec_pmi(32), "pmi");
}

TEST(GraphConformanceLattice, TfIdf) {
  run_graph_lattice(spec_tfidf(33), "tfidf");
  run_handoff_axis(spec_tfidf(34), "tfidf");
}

TEST(GraphConformanceLattice, MultiRoundSort) {
  run_graph_lattice(spec_msort(35), "msort");
  run_handoff_axis(spec_msort(36), "msort");
}

}  // namespace
}  // namespace supmr::harness
