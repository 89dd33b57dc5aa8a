// Merge-phase instrumentation.
//
// The paper's Fig. 1 vs Fig. 6 contrast is about *rounds*: pairwise merge
// re-scans all keys log2(R) times with halving parallelism (the "step"
// curve), while p-way merge scans once at full parallelism. MergeStats
// records exactly that geometry so real-mode benches can print it.
#pragma once

#include <cstdint>
#include <vector>

namespace supmr::merge {

struct MergeStats {
  struct Round {
    std::size_t active_workers = 0;
    std::uint64_t items_moved = 0;  // elements written this round
    double wall_s = 0.0;
  };
  std::vector<Round> rounds;

  std::size_t num_rounds() const { return rounds.size(); }
  std::uint64_t total_items_moved() const {
    std::uint64_t n = 0;
    for (const auto& r : rounds) n += r.items_moved;
    return n;
  }
};

}  // namespace supmr::merge
