// Property tests for the splitter discipline (merge/splitters.hpp), run the
// way the cluster shuffle (src/cluster/cluster_job.cpp) runs it: sort an
// evenly spaced sample, cut it with cut_splitters, route every value with
// partition_of.
//
// Range partitioning is only correct if that discipline upholds these
// invariants, checked here on seeded adversarial inputs:
//   1. cuts — strictly increasing, at most P - 1 of them;
//   2. completeness — partition sizes sum to N; nothing dropped, nothing
//      duplicated (whole multiset preserved);
//   3. boundary order — every key in partition p sorts strictly before every
//      key in partition p+1 (equal keys never straddle a boundary);
//   4. determinism — splitter selection has no RNG, so identical inputs
//      produce identical splitters and routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "merge/splitters.hpp"
#include "tests/testdata.hpp"

namespace supmr {
namespace {

// Up to `parts` - 1 splitters from ~32 evenly spaced probes per partition,
// sorted and cut: the cluster shuffle's sampling, over one node.
std::vector<int> sampled_splitters(const std::vector<int>& data,
                                   std::size_t parts) {
  const std::size_t take = std::min<std::size_t>(data.size(), 32 * parts);
  std::vector<int> sample;
  for (std::size_t i = 0; i < take; ++i)
    sample.push_back(data[(2 * i + 1) * data.size() / (2 * take)]);
  std::sort(sample.begin(), sample.end());
  return merge::cut_splitters(std::span<const int>(sample), parts,
                              std::less<int>{});
}

// Buckets `data` by partition_of, keeping arrival order in each bucket.
std::vector<std::vector<int>> route(const std::vector<int>& data,
                                    const std::vector<int>& splitters) {
  std::vector<std::vector<int>> parts(splitters.size() + 1);
  for (int v : data)
    parts[merge::partition_of(splitters, v, std::less<int>{})].push_back(v);
  return parts;
}

class SplitterProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitterProperty, PartitionValuesUpholdInvariants) {
  for (const auto& dataset : testdata::adversarial_int_datasets(GetParam())) {
    for (std::size_t want : {2u, 5u, 16u}) {
      const std::vector<int> splitters = sampled_splitters(dataset.data, want);
      // (1) Splitters are strictly increasing, at most want - 1 of them.
      for (std::size_t i = 1; i < splitters.size(); ++i)
        EXPECT_LT(splitters[i - 1], splitters[i]) << dataset.name;
      EXPECT_LE(splitters.size(), want - 1) << dataset.name;
      // Duplicate quantile cuts collapse: all-equal keys leave one cut.
      if (dataset.name == "all_equal") {
        EXPECT_LE(splitters.size(), 1u);
      }

      const auto parts = route(dataset.data, splitters);

      // (2) sizes sum to N and the multiset is preserved.
      std::size_t total = 0;
      std::vector<int> regathered;
      for (const auto& p : parts) {
        total += p.size();
        regathered.insert(regathered.end(), p.begin(), p.end());
      }
      EXPECT_EQ(total, dataset.data.size()) << dataset.name;
      std::vector<int> expected = dataset.data;
      std::sort(expected.begin(), expected.end());
      std::sort(regathered.begin(), regathered.end());
      EXPECT_EQ(regathered, expected) << dataset.name;

      // (3) key order across boundaries: max of p < min of p+1, and equal
      // values never split — every occurrence of a value is in ONE part.
      int prev_max = 0;
      bool have_prev = false;
      std::map<int, std::size_t> home;
      for (std::size_t p = 0; p < parts.size(); ++p) {
        if (parts[p].empty()) continue;
        const auto [lo, hi] =
            std::minmax_element(parts[p].begin(), parts[p].end());
        if (have_prev) {
          EXPECT_LT(prev_max, *lo)
              << dataset.name << " boundary before partition " << p;
        }
        prev_max = *hi;
        have_prev = true;
        for (int v : parts[p]) {
          auto [it, inserted] = home.emplace(v, p);
          EXPECT_EQ(it->second, p)
              << dataset.name << ": value " << v << " split across partitions "
              << it->second << " and " << p;
          (void)inserted;
        }
      }

      // Each value's partition is the number of splitters <= it.
      for (const auto& [v, p] : home) {
        const auto at_or_below = static_cast<std::size_t>(std::count_if(
            splitters.begin(), splitters.end(), [v](int s) { return s <= v; }));
        EXPECT_EQ(at_or_below, p) << dataset.name << " value " << v;
      }
    }
  }
}

TEST_P(SplitterProperty, SelectionIsDeterministic) {
  const auto data = testdata::random_ints(50000, GetParam());
  const auto a = sampled_splitters(data, 8);
  const auto b = sampled_splitters(data, 8);
  EXPECT_EQ(a, b);
  EXPECT_EQ(route(data, a), route(data, b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitterProperty,
                         ::testing::Values(7u, 0xA11CE5u, 0xB0BCA7u));

}  // namespace
}  // namespace supmr
