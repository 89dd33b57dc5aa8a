// The conformance harness's mutation smoke (docs/testing.md) only proves
// the e2e differential catches a corrupted merge if the named mutation
// hooks really corrupt the decision they claim to. SUPMR_TEST_MUTATION is
// sampled once per process and cached in function-local statics at each
// call site, so every hook gets its own forked child (gtest fast death
// tests): the child sets the variable before the first call reaches the
// hook, runs the kernel, and exits 0 only if the output is wrong in
// exactly the advertised way.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <span>
#include <vector>

#include "merge/pway.hpp"
#include "merge/splitters.hpp"
#include "threading/thread_pool.hpp"

namespace supmr::merge {
namespace {

// Child bodies exit 0 when the mutation took effect; any other code means
// the hook silently did nothing (the exact failure the smoke would miss).
[[noreturn]] void run_pway_with_inverted_comparator() {
  ::setenv("SUPMR_TEST_MUTATION", "pway-comparator", 1);
  ThreadPool pool(1);  // one worker => one loser tree over the whole input
  std::vector<int> a = {1, 3, 5, 7};
  std::vector<int> b = {2, 4, 6, 8};
  std::vector<std::span<int>> runs = {a, b};
  std::vector<int> out(a.size() + b.size());
  parallel_pway_merge(pool, std::move(runs), out.data(), std::less<int>());
  // The hook inverts the comparator inside the merge stage only, so the
  // output must be a non-ascending arrangement of the same elements.
  std::vector<int> sorted = out;
  std::sort(sorted.begin(), sorted.end());
  const bool permutation = sorted == std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8};
  const bool mutated = !std::is_sorted(out.begin(), out.end());
  std::exit(permutation && mutated ? 0 : 1);
}

TEST(MergeMutationHooks, PwayComparatorHookInvertsMergeOrder) {
  EXPECT_EXIT(run_pway_with_inverted_comparator(),
              ::testing::ExitedWithCode(0), "");
}

[[noreturn]] void run_routing_with_rotation() {
  ::setenv("SUPMR_TEST_MUTATION", "partition-routing", 1);
  const std::vector<int> splitters = {10, 20};
  const std::less<int> cmp;
  // Unmutated routing sends 5 -> 0, 15 -> 1, 25 -> 2; the hook rotates
  // every element one partition up and wraps the top range into 0.
  const bool mutated = partition_of(splitters, 5, cmp) == 1 &&
                       partition_of(splitters, 15, cmp) == 2 &&
                       partition_of(splitters, 25, cmp) == 0;
  std::exit(mutated ? 0 : 1);
}

TEST(MergeMutationHooks, PartitionRoutingHookRotatesWithWrap) {
  EXPECT_EXIT(run_routing_with_rotation(), ::testing::ExitedWithCode(0), "");
}

// Control: with the variable naming a different hook, both kernels behave
// normally — activation is exact-match, not prefix-match.
[[noreturn]] void run_with_unrelated_mutation_name() {
  ::setenv("SUPMR_TEST_MUTATION", "pway-comparator-extra", 1);
  const std::vector<int> splitters = {10};
  const std::less<int> cmp;
  ThreadPool pool(1);
  std::vector<int> a = {1, 3};
  std::vector<int> b = {2, 4};
  std::vector<std::span<int>> runs = {a, b};
  std::vector<int> out(4);
  parallel_pway_merge(pool, std::move(runs), out.data(), std::less<int>());
  const bool clean = partition_of(splitters, 5, cmp) == 0 &&
                     partition_of(splitters, 15, cmp) == 1 &&
                     std::is_sorted(out.begin(), out.end());
  std::exit(clean ? 0 : 1);
}

TEST(MergeMutationHooks, UnrelatedNameLeavesKernelsUntouched) {
  EXPECT_EXIT(run_with_unrelated_mutation_name(),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace supmr::merge
