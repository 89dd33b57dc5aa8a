// The one splitter cut and the one key router.
//
// parallel_pway_merge (pway.hpp) cuts a sorted sample into worker slices;
// the cluster shuffle (src/cluster/) cuts a sorted sample into owner key
// ranges and routes every record to its owner.
//
// Invariant: splitters s_0 < s_1 < ... < s_{P-2} assign an element x to
// partition upper_bound(splitters, x), so equal keys always land in the
// same partition and partition p's keys all sort strictly before
// partition p+1's.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/test_hooks.hpp"

namespace supmr::merge {

// Cuts up to `partitions - 1` splitters from `sorted` (sorted under cmp) at
// evenly spaced quantiles: cut p is element p * n / partitions. A cut that
// does not sort strictly after the one before it is dropped, so the result
// is strictly increasing and may be shorter (duplicate-heavy inputs need
// fewer cuts). Callers bound `partitions` by their worker or node count.
template <typename T, typename Cmp>
std::vector<T> cut_splitters(std::span<const T> sorted,
                             std::size_t partitions, Cmp cmp) {
  std::vector<T> cuts;
  if (sorted.empty()) return cuts;
  for (std::size_t p = 1; p < partitions; ++p) {
    const T& cut = sorted[p * sorted.size() / partitions];
    if (cuts.empty() || cmp(cuts.back(), cut)) cuts.push_back(cut);
  }
  return cuts;
}

// Partition index of `x` under `splitters` (sorted, strictly increasing):
// the number of splitters <= x. Equal keys map to the same partition.
template <typename S, typename T, typename Cmp>
std::size_t partition_of(const std::vector<S>& splitters, const T& x,
                         Cmp cmp) {
  std::size_t p = static_cast<std::size_t>(
      std::upper_bound(splitters.begin(), splitters.end(), x, cmp) -
      splitters.begin());
  // "partition-routing" mutation hook (conformance harness smoke): rotate
  // every element one partition up, wrapping the top key range into
  // partition 0. The wrap is what makes it detectable — a uniform or
  // monotone shift would keep the owners' concatenation sorted.
  static const bool mutate_routing = test_mutation_enabled("partition-routing");
  if (mutate_routing && !splitters.empty()) {
    p = (p + 1) % (splitters.size() + 1);
  }
  return p;
}

}  // namespace supmr::merge
