// Loser-tree (tournament) k-way merge.
//
// Merges N sorted runs into one output in a single pass with log2(N)
// comparisons per element — the p-way merging of Salzberg [9] that SupMR
// substitutes for the runtime's iterative pairwise merge (paper §IV). The
// loser tree keeps the loser of each internal match so advancing the winner
// replays only one root-to-leaf path.
//
// The tree merges run cursors. A cursor walks one sorted run: done() is true
// once the run is exhausted, head() is its current element, and advance()
// steps past it. A span is one kind of cursor (SpanCursor, which adds the
// pop/drain API): over const elements by default, over mutable ones when
// the caller hands its runs over, and then drain() moves each element out
// instead of copying it. The budgeted word count's runs and the cluster
// owner's inboxes are other cursors. A cursor whose advance() returns a
// Status (a run read from disk) hands it back through the tree's advance();
// on an error the tree is left as it was, so the caller stops at the
// failing record.
//
// Ties are unordered: equal heads leave in an order the tree's shape picks,
// not by run index (runs 0-3 each holding one equal key pop as 0, 2, 1, 3).
// The order is fixed for given runs, and no checked output depends on it:
// keyed apps merge disjoint keys, the budgeted word count and the cluster
// owner fold equal keys into one output, the cluster merges whole fixed
// records (equal ones are byte-identical), and TeraSort's canonical output
// orders equal-key records by their full bytes.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace supmr::merge {

// A cursor over one in-memory sorted run of E (const T or T).
template <typename E>
class SpanCursor {
 public:
  explicit SpanCursor(std::span<E> run)
      : head_(run.data()), end_(run.data() + run.size()) {}

  bool done() const { return head_ == end_; }
  E& head() const { return *head_; }
  void advance() { ++head_; }
  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - head_);
  }

 private:
  E* head_;
  E* end_;
};

// Merges cursors whose heads have type T, ordered by `cmp`.
template <typename T, typename Cmp, typename Cursor = SpanCursor<const T>>
class LoserTree {
  static constexpr bool kMutableSpans = std::is_same_v<Cursor, SpanCursor<T>>;
  static constexpr bool kSpans =
      kMutableSpans || std::is_same_v<Cursor, SpanCursor<const T>>;
  using Run = std::span<std::conditional_t<kMutableSpans, T, const T>>;

 public:
  // `runs` must each be sorted under `cmp`. Empty runs are allowed.
  LoserTree(std::vector<Cursor> runs, Cmp cmp)
      : runs_(std::move(runs)), cmp_(cmp) {
    k_ = 1;
    while (k_ < runs_.size()) k_ <<= 1;  // pad to a power of two
    tree_.assign(k_, kInvalid);
    build();
  }
  LoserTree(const std::vector<Run>& runs, Cmp cmp)
    requires kSpans
      : LoserTree(std::vector<Cursor>(runs.begin(), runs.end()), cmp) {}

  // True once every run is exhausted.
  bool empty() const { return !alive(winner_); }

  // The run whose head sorts first (requires !empty()).
  Cursor& top() {
    assert(!empty());
    return runs_[winner_];
  }

  // Steps top() past its head and replays its path. Returns what the
  // cursor's advance() returns; after an error the tree is unchanged.
  auto advance() {
    Cursor& run = top();
    if constexpr (std::is_void_v<decltype(run.advance())>) {
      run.advance();
      replay(winner_);
    } else {
      auto status = run.advance();
      if (status.ok()) replay(winner_);
      return status;
    }
  }

  std::uint64_t remaining() const
    requires kSpans
  {
    std::uint64_t n = 0;
    for (const Cursor& run : runs_) n += run.remaining();
    return n;
  }

  // Pops the smallest element across all runs.
  const T& pop()
    requires kSpans
  {
    const T& result = top().head();
    advance();
    return result;
  }

  // Drains everything into `out` (must have room for remaining()), moving
  // each element when the runs are mutable and copying it otherwise.
  void drain(T* out)
    requires kSpans
  {
    while (!empty()) {
      *out++ = std::move(top().head());
      advance();
    }
  }

 private:
  static constexpr std::size_t kInvalid = ~std::size_t{0};

  bool alive(std::size_t run) const {
    return run < runs_.size() && !runs_[run].done();
  }

  // True if run a's head sorts no later than run b's (exhausted runs lose).
  bool beats(std::size_t a, std::size_t b) const {
    if (!alive(a)) return false;
    if (!alive(b)) return true;
    return !cmp_(runs_[b].head(), runs_[a].head());
  }

  void build() {
    // Play the full tournament once: leaves are run indices; tree_[i] holds
    // the loser of the match at internal node i; winner_ holds the champion.
    std::vector<std::size_t> up(k_);
    for (std::size_t i = 0; i < k_; ++i) up[i] = i;
    std::size_t level = k_;
    while (level > 1) {
      for (std::size_t i = 0; i < level; i += 2) {
        const std::size_t a = up[i], b = up[i + 1];
        const bool a_wins = beats(a, b);
        tree_[(level + i) / 2] = a_wins ? b : a;
        up[i / 2] = a_wins ? a : b;
      }
      level /= 2;
    }
    winner_ = up[0];
  }

  void replay(std::size_t run) {
    // Walk from leaf `run` to the root, swapping with stored losers when
    // they now beat the current candidate.
    std::size_t node = (k_ + run) / 2;
    std::size_t candidate = run;
    while (node >= 1) {
      const std::size_t other = tree_[node];
      if (other != kInvalid && beats(other, candidate)) {
        tree_[node] = candidate;
        candidate = other;
      }
      if (node == 1) break;
      node /= 2;
    }
    winner_ = candidate;
  }

  std::vector<Cursor> runs_;
  Cmp cmp_;
  std::size_t k_ = 0;
  std::vector<std::size_t> tree_;  // loser at each internal node
  std::size_t winner_ = kInvalid;
};

}  // namespace supmr::merge
