// Property tests for the sharded-shuffle runtime (src/cluster/,
// docs/cluster.md).
//
// The protocol layer (split / key / value / merge) is pure functions
// over string views, so its grammar and every error path are pinned down
// directly. The runtime properties are the cluster's contract:
//   * node-count independence — 1, 2, 4, 7 nodes produce identical bytes;
//   * conservation — every map-output byte either crossed a node boundary
//     or stayed local, and senders' ledgers agree with receivers';
//   * deterministic routing — repeated runs (and different per-node thread
//     counts) reproduce the exact per-node shuffle ledger, not just the
//     output bytes;
//   * bounded skew — splitters cut from the merged per-node samples keep
//     the heaviest owner within a small factor of the mean on Zipf text;
//   * no copies — nodes read their slices of the input in place, and the
//     owner merges never write past the bytes they were handed.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "apps/histogram.hpp"
#include "apps/inverted_index.hpp"
#include "apps/tera_sort.hpp"
#include "apps/word_count.hpp"
#include "cluster/cluster_job.hpp"
#include "cluster/protocol.hpp"
#include "common/rng.hpp"
#include "ingest/record_format.hpp"
#include "wload/numeric.hpp"
#include "wload/text_corpus.hpp"

namespace supmr::cluster {
namespace {

using SV = std::vector<std::string_view>;

// ------------------------------------------------------------- protocol

TEST(ClusterProtocol, SplitLinesIncludesNewlines) {
  auto lines = split_lines("a\t1\nbc\t2\n");
  ASSERT_TRUE(lines.ok());
  ASSERT_EQ(lines->size(), 2u);
  EXPECT_EQ((*lines)[0], "a\t1\n");
  EXPECT_EQ((*lines)[1], "bc\t2\n");
  EXPECT_TRUE(split_lines("")->empty());
}

TEST(ClusterProtocol, SplitLinesRejectsUnterminated) {
  auto lines = split_lines("a\t1\nno-newline");
  ASSERT_FALSE(lines.ok());
  EXPECT_EQ(lines.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClusterProtocol, SplitFixed) {
  auto recs = split_fixed("aabbcc", 2);
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 3u);
  EXPECT_EQ((*recs)[1], "bb");
  EXPECT_FALSE(split_fixed("abc", 2).ok());  // partial record
  EXPECT_FALSE(split_fixed("abc", 0).ok());  // zero width
}

TEST(ClusterProtocol, LineKeyUsesLastTab) {
  EXPECT_EQ(line_key("word\t42\n"), "word");
  EXPECT_EQ(line_key("a\tb\t7\n"), "a\tb");  // keys may contain tabs
  EXPECT_EQ(line_key("noseparator\n"), "noseparator");
  EXPECT_EQ(line_key("notrailingnewline"), "notrailingnewline");
}

TEST(ClusterProtocol, LineValueParsesAndRejects) {
  auto v = line_value("word\t42\n");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42u);
  EXPECT_FALSE(line_value("no-tab\n").ok());
  EXPECT_FALSE(line_value("empty\t\n").ok());
  EXPECT_FALSE(line_value("bad\t4x2\n").ok());
  EXPECT_FALSE(line_value("word\t42").ok());  // no trailing newline
}

std::size_t total_bytes(const std::vector<SV>& runs) {
  std::size_t bytes = 0;
  for (const SV& run : runs) {
    for (std::string_view r : run) bytes += r.size();
  }
  return bytes;
}

// Runs a pointer-form merge into a buffer sized to the runs' total bytes
// plus a guard tail, checks that the merge wrote nothing past the total,
// and returns the bytes it wrote.
template <typename Merge>
StatusOr<std::string> merge_into_buffer(const std::vector<SV>& runs,
                                        Merge merge) {
  constexpr std::size_t kGuard = 32;
  const std::size_t total = total_bytes(runs);
  std::string buffer(total + kGuard, '#');
  StatusOr<char*> end = merge(runs, buffer.data());
  if (!end.ok()) return end.status();
  const std::size_t written = static_cast<std::size_t>(*end - buffer.data());
  EXPECT_LE(written, total) << "the merge wrote past the runs' bytes";
  EXPECT_EQ(buffer.substr(total), std::string(kGuard, '#'))
      << "the merge wrote past the runs' bytes";
  return buffer.substr(0, written);
}

StatusOr<std::string> sorted_keys(const std::vector<SV>& runs) {
  return merge_into_buffer(runs, [](const std::vector<SV>& r, char* out) {
    return merge_sorted_keys(r, out);
  });
}

StatusOr<std::string> fixed_records(const std::vector<SV>& runs) {
  return merge_into_buffer(
      runs, [](const std::vector<SV>& r, char* out) -> StatusOr<char*> {
        return merge_fixed_records(r, out);
      });
}

TEST(ClusterProtocol, MergeSortedKeysFoldsAcrossRuns) {
  SV a = {std::string_view("apple\t2\n"), std::string_view("cherry\t1\n")};
  SV b = {std::string_view("apple\t3\n"), std::string_view("banana\t5\n")};
  auto merged = sorted_keys({a, b});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, "apple\t5\nbanana\t5\ncherry\t1\n");
  // A dense table (histogram's shape): every non-empty run holds every
  // key, and a node that owns no slice sends an empty run.
  SV full = {std::string_view("bin0\t1\n"), std::string_view("bin1\t2\n")};
  SV other = {std::string_view("bin0\t10\n"), std::string_view("bin1\t20\n")};
  SV empty;
  auto dense = sorted_keys({full, empty, other});
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(*dense, "bin0\t11\nbin1\t22\n");
}

TEST(ClusterProtocol, MergeSortedKeysPropagatesBadValues) {
  SV a = {std::string_view("apple\tnope\n")};
  SV b = {std::string_view("apple\t3\n")};
  EXPECT_FALSE(sorted_keys({a, b}).ok());
  // A line without its newline could fold into a longer line than itself.
  SV unterminated = {std::string_view("apple\t1")};
  EXPECT_FALSE(sorted_keys({unterminated}).ok());
}

TEST(ClusterProtocol, MergeFixedRecordsInterleaves) {
  SV a = {std::string_view("aa"), std::string_view("cc")};
  SV b = {std::string_view("bb"), std::string_view("cc"),
          std::string_view("dd")};
  auto merged = fixed_records({a, b});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, "aabbccccdd");
}

TEST(ClusterProtocol, FoldNeverLengthensLines) {
  // An owner's fold writes into a window sized to its inbox bytes, so a
  // folded line must never be longer than the lines it folds:
  // digits(a + b) <= digits(a) + digits(b), also across a carry (9 + 9 ->
  // 18) and when the u64 sum wraps around.
  const std::uint64_t kMax = ~std::uint64_t{0};
  const std::vector<std::uint64_t> edge = {0, 1, 9, 10, 99, 999999999,
                                           kMax / 2, kMax - 1, kMax};
  const std::vector<std::string> keys = {"a", "a\tb", "apple", "k9", "zz"};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Xoshiro256 rng(seed);
    const std::size_t run_count = 1 + rng.uniform(5);
    std::vector<std::vector<std::string>> lines(run_count);
    std::map<std::string, std::uint64_t> reference;  // a plain fold
    for (std::vector<std::string>& run : lines) {
      for (const std::string& key : keys) {  // keys in sorted order
        if (rng.uniform(3) == 0) continue;
        const std::uint64_t v = rng.uniform(2) == 0
                                    ? edge[rng.uniform(edge.size())]
                                    : rng() >> rng.uniform(64);
        run.push_back(key + "\t" + std::to_string(v) + "\n");
        reference[key] += v;  // wraps like the fold
      }
    }
    std::vector<SV> runs;
    for (const std::vector<std::string>& run : lines) {
      runs.emplace_back(run.begin(), run.end());
    }
    std::string expect;
    for (const auto& [key, sum] : reference) {
      expect += key + "\t" + std::to_string(sum) + "\n";
    }
    auto merged = sorted_keys(runs);
    ASSERT_TRUE(merged.ok()) << "seed " << seed;
    EXPECT_EQ(*merged, expect) << "seed " << seed;
    EXPECT_LE(merged->size(), total_bytes(runs)) << "seed " << seed;
  }
  // The tightest cases, where the fold's bytes are compared exactly.
  SV nines = {std::string_view("k\t9\n")};
  auto carry = sorted_keys({nines, nines});
  ASSERT_TRUE(carry.ok());
  EXPECT_EQ(*carry, "k\t18\n");
  SV top = {std::string_view("k\t18446744073709551615\n")};
  SV one = {std::string_view("k\t1\n")};
  auto wrapped = sorted_keys({top, one});
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(*wrapped, "k\t0\n");
}

// -------------------------------------------------------------- runtime

ClusterJob wordcount_job(std::string input, std::size_t nodes) {
  ClusterJob job;
  job.input = std::move(input);
  job.format = std::make_shared<ingest::LineFormat>();
  job.make_app = [] {
    return std::unique_ptr<core::Application>(new apps::WordCountApp());
  };
  job.config.num_nodes = nodes;
  job.config.num_map_threads = 2;
  job.config.num_reduce_threads = 2;
  job.chunk_bytes = 8 * 1024;
  return job;
}

std::string zipf_text(std::uint64_t bytes, std::uint64_t seed,
                      double skew = 1.0) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = bytes;
  cfg.seed = seed;
  cfg.zipf_skew = skew;
  return wload::generate_text(cfg);
}

void expect_conservation(const ClusterResult& result) {
  EXPECT_EQ(result.shuffle_bytes + result.local_bytes,
            result.map_output_bytes);
  std::uint64_t sent = 0, recv = 0, local = 0, map_out = 0;
  for (const NodeStats& node : result.nodes) {
    sent += node.sent_bytes;
    recv += node.recv_bytes;
    local += node.local_bytes;
    map_out += node.map_output_bytes;
  }
  // Senders' and receivers' ledgers must agree: every cross-node byte was
  // sent exactly once and received exactly once.
  EXPECT_EQ(sent, result.shuffle_bytes);
  EXPECT_EQ(recv, result.shuffle_bytes);
  EXPECT_EQ(local, result.local_bytes);
  EXPECT_EQ(map_out, result.map_output_bytes);
}

TEST(ClusterRuntime, NodeCountIndependence) {
  const std::string corpus = zipf_text(96 * 1024, 101);
  std::string baseline;
  for (std::size_t nodes : {1u, 2u, 4u, 7u}) {
    auto result = run_cluster(wordcount_job(corpus, nodes));
    ASSERT_TRUE(result.ok()) << "nodes=" << nodes << ": "
                             << result.status().to_string();
    expect_conservation(*result);
    if (nodes == 1) {
      baseline = result->output;
      EXPECT_EQ(result->shuffle_bytes, 0u);  // no one to shuffle to
    } else {
      EXPECT_EQ(result->output, baseline)
          << "nodes=" << nodes << " changed the output bytes";
    }
  }
}

TEST(ClusterRuntime, DeterministicShuffleLedger) {
  const std::string corpus = zipf_text(64 * 1024, 102);
  auto first = run_cluster(wordcount_job(corpus, 4));
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  // Same geometry re-run: the concurrent senders race on the wall clock but
  // routing is deterministic, so the per-node ledger must reproduce exactly.
  auto again = run_cluster(wordcount_job(corpus, 4));
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  EXPECT_EQ(first->output, again->output);
  ASSERT_EQ(first->nodes.size(), again->nodes.size());
  for (std::size_t k = 0; k < first->nodes.size(); ++k) {
    EXPECT_EQ(first->nodes[k].sent_bytes, again->nodes[k].sent_bytes) << k;
    EXPECT_EQ(first->nodes[k].recv_bytes, again->nodes[k].recv_bytes) << k;
    EXPECT_EQ(first->nodes[k].local_bytes, again->nodes[k].local_bytes) << k;
  }
  // Different per-node thread counts change the schedule, not the bytes.
  ClusterJob wide = wordcount_job(corpus, 4);
  wide.config.num_map_threads = 5;
  wide.config.num_reduce_threads = 3;
  auto threaded = run_cluster(wide);
  ASSERT_TRUE(threaded.ok()) << threaded.status().to_string();
  EXPECT_EQ(threaded->output, first->output);
}

TEST(ClusterRuntime, SkewStaysBoundedOnZipfText) {
  // Zipf word frequencies are maximally skewed by VALUE, but splitters cut
  // the KEY space from the merged sample, so owner record counts stay
  // balanced. "owned" = what the node merges (received + kept local).
  const std::string corpus = zipf_text(128 * 1024, 103, /*skew=*/1.2);
  auto result = run_cluster(wordcount_job(corpus, 4));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  std::uint64_t owned_max = 0, owned_sum = 0;
  for (const NodeStats& node : result->nodes) {
    const std::uint64_t owned = node.recv_bytes + node.local_bytes;
    owned_max = std::max(owned_max, owned);
    owned_sum += owned;
  }
  const double mean = double(owned_sum) / double(result->nodes.size());
  EXPECT_LE(double(owned_max), 3.0 * mean)
      << "heaviest owner more than 3x the mean";
}

TEST(ClusterRuntime, ThrottledFabricSameBytes) {
  const std::string corpus = zipf_text(48 * 1024, 104);
  auto fast = run_cluster(wordcount_job(corpus, 3));
  ASSERT_TRUE(fast.ok());
  ClusterJob slow_job = wordcount_job(corpus, 3);
  slow_job.config.node_link_bps = 4.0e6;
  slow_job.config.uplink_bps = 8.0e6;
  slow_job.config.node_disk_bps = 32.0e6;
  auto slow = run_cluster(slow_job);
  ASSERT_TRUE(slow.ok()) << slow.status().to_string();
  EXPECT_EQ(slow->output, fast->output);
  EXPECT_EQ(slow->shuffle_bytes, fast->shuffle_bytes);
}

TEST(ClusterRuntime, HistogramAlignedFold) {
  // Every node's histogram holds every bin key, so all nodes send to every
  // owner, and the owners' sorted-key folds must reassemble the 1-node
  // table exactly.
  wload::NumericConfig gen;
  gen.num_values = 20000;
  gen.lo = 0;
  gen.hi = 255;
  gen.seed = 106;
  const std::string corpus = wload::generate_numeric(gen);
  auto histogram_job = [&](std::size_t nodes) {
    ClusterJob job;
    job.input = corpus;
    job.format = std::make_shared<ingest::LineFormat>();
    job.make_app = [] {
      apps::HistogramOptions opt;
      opt.lo = 0;
      opt.hi = 256;
      opt.bins = 32;
      return std::unique_ptr<core::Application>(new apps::HistogramApp(opt));
    };
    job.config.num_nodes = nodes;
    job.chunk_bytes = 8 * 1024;
    return job;
  };
  auto one = run_cluster(histogram_job(1));
  ASSERT_TRUE(one.ok()) << one.status().to_string();
  auto four = run_cluster(histogram_job(4));
  ASSERT_TRUE(four.ok()) << four.status().to_string();
  EXPECT_EQ(four->output, one->output);
  EXPECT_EQ(four->shard, core::ShardKind::kSortedKeys);
  expect_conservation(*four);
}

TEST(ClusterRuntime, PhaseTimesAddUpToElapsed) {
  const std::string corpus = zipf_text(64 * 1024, 107);
  for (std::size_t nodes : {1u, 4u}) {
    auto result = run_cluster(wordcount_job(corpus, nodes));
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_GE(result->slice_s, 0.0) << "nodes=" << nodes;
    EXPECT_GE(result->map_s, 0.0) << "nodes=" << nodes;
    EXPECT_GE(result->route_s, 0.0) << "nodes=" << nodes;
    EXPECT_GE(result->merge_s, 0.0) << "nodes=" << nodes;
    EXPECT_LE(result->slice_s + result->map_s + result->route_s +
                  result->merge_s,
              result->elapsed_s)
        << "nodes=" << nodes;
  }
}

// Forwards every seam the cluster runtime drives to a real WordCountApp, so
// a test app overrides only the seams it probes.
class ForwardingApp : public core::Application {
 public:
  void init(std::size_t num_map_threads) override {
    inner_.init(num_map_threads);
  }
  Status prepare_round(const ingest::IngestChunk& chunk) override {
    return inner_.prepare_round(chunk);
  }
  std::size_t round_tasks() const override { return inner_.round_tasks(); }
  void map_task(std::size_t task, std::size_t thread_id) override {
    inner_.map_task(task, thread_id);
  }
  Status reduce(ThreadPool& pool, std::size_t num_partitions) override {
    return inner_.reduce(pool, num_partitions);
  }
  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               merge::MergeStats* stats) override {
    return inner_.merge(pool, plan, stats);
  }
  std::uint64_t result_count() const override {
    return inner_.result_count();
  }
  core::ShardKind shard_kind() const override { return inner_.shard_kind(); }
  std::string canonical_output() const override {
    return inner_.canonical_output();
  }

 protected:
  apps::WordCountApp inner_;
};

// Where every chunk the nodes mapped lies in memory.
struct ChunkLog {
  std::mutex mu;
  std::vector<std::span<const char>> chunks;
};

class ChunkRecordingApp : public ForwardingApp {
 public:
  explicit ChunkRecordingApp(std::shared_ptr<ChunkLog> log)
      : log_(std::move(log)) {}
  Status prepare_round(const ingest::IngestChunk& chunk) override {
    {
      std::lock_guard<std::mutex> lock(log_->mu);
      log_->chunks.push_back(chunk.bytes());
    }
    return ForwardingApp::prepare_round(chunk);
  }

 private:
  std::shared_ptr<ChunkLog> log_;
};

TEST(ClusterRuntime, NodesReadTheInputInPlace) {
  // With io=mmap a node's chunks borrow its device's bytes, so a node that
  // reads its slice of job.input in place maps chunks that lie inside
  // job.input; a node reading a copy of its slice maps chunks that do not.
  const std::string corpus = zipf_text(64 * 1024, 108);
  for (std::size_t nodes : {1u, 2u, 4u}) {
    ClusterJob job = wordcount_job(corpus, nodes);
    job.config.io = core::IoMode::kMmap;
    auto log = std::make_shared<ChunkLog>();
    job.make_app = [log] {
      return std::unique_ptr<core::Application>(new ChunkRecordingApp(log));
    };
    auto result = run_cluster(job);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const std::less_equal<const char*> le;
    const char* const begin = job.input.data();
    const char* const end = begin + job.input.size();
    std::uint64_t bytes = 0;
    for (const std::span<const char> chunk : log->chunks) {
      EXPECT_TRUE(le(begin, chunk.data()) &&
                  le(chunk.data() + chunk.size(), end))
          << "nodes=" << nodes << ": a " << chunk.size()
          << "-byte chunk lies outside job.input";
      bytes += chunk.size();
    }
    EXPECT_EQ(bytes, corpus.size()) << "nodes=" << nodes;
  }
}

// ---------------------------------------------------------- error paths

TEST(ClusterRuntime, RejectsBadConfiguration) {
  auto base = [] { return wordcount_job("hello world\n", 2); };
  {
    ClusterJob job = base();
    job.config.num_nodes = 0;
    EXPECT_FALSE(run_cluster(job).ok());
  }
  {
    ClusterJob job = base();
    job.make_app = nullptr;
    EXPECT_FALSE(run_cluster(job).ok());
  }
  {
    ClusterJob job = base();
    job.format = nullptr;
    EXPECT_FALSE(run_cluster(job).ok());
  }
  {
    ClusterJob job = base();
    job.make_app = [] { return std::unique_ptr<core::Application>(); };
    EXPECT_FALSE(run_cluster(job).ok());
  }
  {
    // An app without a shard protocol (InvertedIndexApp keeps the kNone
    // default) cannot run on a cluster.
    ClusterJob job = base();
    job.make_app = [] {
      return std::unique_ptr<core::Application>(new apps::InvertedIndexApp());
    };
    auto result = run_cluster(job);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().to_string().find("no shard protocol"),
              std::string::npos);
  }
  {
    // Fixed-record sharding with no record width.
    ClusterJob job = base();
    job.make_app = [] {
      return std::unique_ptr<core::Application>(
          new apps::TeraSortApp(apps::TeraSortOptions{}));
    };
    job.record_bytes = 0;
    EXPECT_FALSE(run_cluster(job).ok());
  }
}

TEST(ClusterRuntime, MoreNodesThanRecords) {
  // 7 nodes over a 2-line input: most slices are empty, most owners receive
  // nothing, and the output still matches the single-node run.
  const std::string tiny = "alpha beta\nbeta gamma\n";
  auto one = run_cluster(wordcount_job(tiny, 1));
  ASSERT_TRUE(one.ok()) << one.status().to_string();
  auto many = run_cluster(wordcount_job(tiny, 7));
  ASSERT_TRUE(many.ok()) << many.status().to_string();
  EXPECT_EQ(many->output, one->output);
  expect_conservation(*many);
}

TEST(ClusterRuntime, NodesShareAnInputOfOneChunk) {
  // The whole input fits in one chunk, so its chunk plan has one extent;
  // slices are cut by bytes, not by extents, so both nodes map a share.
  const std::string corpus = zipf_text(16 * 1024, 109);
  ClusterJob job = wordcount_job(corpus, 2);
  job.chunk_bytes = 64 * 1024;
  auto two = run_cluster(job);
  ASSERT_TRUE(two.ok()) << two.status().to_string();
  ASSERT_EQ(two->nodes.size(), 2u);
  for (const NodeStats& node : two->nodes) EXPECT_GT(node.input_bytes, 0u);
  EXPECT_EQ(two->nodes[0].input_bytes + two->nodes[1].input_bytes,
            corpus.size());
  auto one = run_cluster(wordcount_job(corpus, 1));
  ASSERT_TRUE(one.ok()) << one.status().to_string();
  EXPECT_EQ(two->output, one->output);
  expect_conservation(*two);
}

// -------------------------------------------- node/owner failure paths
//
// A node that produces garbage (or dies) must fail the WHOLE cluster run
// with the underlying error, never a partial or silently-wrong output.
// Real apps can't misbehave like that, so a ForwardingApp overrides exactly
// the two seams the cluster runtime consumes — shard_kind() and
// canonical_output() — and leaves the MapReduce machinery real.
class MisbehavingApp : public ForwardingApp {
 public:
  using Canon = std::string (*)(const apps::WordCountApp&);
  MisbehavingApp(core::ShardKind kind, Canon canon)
      : kind_(kind), canon_(canon) {}
  core::ShardKind shard_kind() const override { return kind_; }
  std::string canonical_output() const override { return canon_(inner_); }

 private:
  core::ShardKind kind_;
  Canon canon_;
};

ClusterJob misbehaving_job(std::string input, std::size_t nodes,
                           core::ShardKind kind, MisbehavingApp::Canon canon) {
  ClusterJob job = wordcount_job(std::move(input), nodes);
  job.make_app = [kind, canon] {
    return std::unique_ptr<core::Application>(new MisbehavingApp(kind, canon));
  };
  // The callers' two lines split one per node (the cut at half the input
  // moves forward to the first newline), so each node's canonical reflects
  // its own line.
  return job;
}

TEST(ClusterRuntime, FactoryGoingNullMidRunFails) {
  // The factory is probed once up front (for shard_kind), then called once
  // per node; a factory that dries up after the probe must fail the node,
  // not crash it.
  ClusterJob job = wordcount_job("alpha beta\ngamma delta\n", 2);
  auto calls = std::make_shared<int>(0);
  job.make_app = [calls]() -> std::unique_ptr<core::Application> {
    if (++*calls > 1) return nullptr;
    return std::unique_ptr<core::Application>(new apps::WordCountApp());
  };
  auto result = run_cluster(job);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().to_string().find("factory returned null"),
            std::string::npos)
      << result.status().to_string();
}

TEST(ClusterRuntime, ThrowingNodeIsCaughtAsStatus) {
  auto result = run_cluster(misbehaving_job(
      "alpha beta\ngamma delta\n", 2, core::ShardKind::kSortedKeys,
      +[](const apps::WordCountApp&) -> std::string {
        throw std::runtime_error("canonical exploded");
      }));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().to_string().find("cluster node threw"),
            std::string::npos)
      << result.status().to_string();
  EXPECT_NE(result.status().to_string().find("canonical exploded"),
            std::string::npos);
}

TEST(ClusterRuntime, MalformedSortedKeyValueFailsOwnerMerge) {
  // Splitting and routing accept any "key\tvalue\n" line; the owner merge
  // is where the value must parse, and its error must surface.
  auto result = run_cluster(misbehaving_job(
      "alpha beta\ngamma delta\n", 2, core::ShardKind::kSortedKeys,
      +[](const apps::WordCountApp&) -> std::string {
        return "alpha\tnot-a-number\n";
      }));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace supmr::cluster
