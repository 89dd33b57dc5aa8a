// The chain sinks' skeleton: the PMI and TF-IDF joins (docs/graphs.md).
//
// A sink's input is the concatenation of two upstream canonical outputs
// over the same corpus. Every line parses to one (key, count) entry with a
// globally unique key, so the join needs no combining, only a global sort.
// A key that holds the sink's separator is a *joined* key (a PMI bigram
// "w1 w2", a TF-IDF "<file_id>\t<word>"); every other key is a *dictionary*
// key (a unigram, an index word) that joined keys look up. A derived sink
// writes only its line grammar (parse) and its formula (score); the
// skeleton owns the rest:
//
//   map     parse each map task's slice of lines into a run of its own;
//   merge   the runs go to sort_and_merge (sort_and_merge.hpp), so they sort
//           on the pool and merge under the job's --merge and report its
//           rounds; then two parallel_for waves over the sorted entries:
//           the first indexes the dictionary entries and sums the totals as
//           exact u64, the second scores each joined entry of its slice and
//           moves the key into the slice's results, which are concatenated
//           in slice order (so in key order);
//   output  one "key\t<score>\n" line per result, the score formatted as
//           "%.6f" (score_lines), so the bytes are deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/application.hpp"

namespace supmr::apps {

// One "key\t<value as %.6f>\n" line per (key, value), in order.
std::string score_lines(
    const std::vector<std::pair<std::string, double>>& rows);

class JoinSink : public core::Application {
 public:
  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return splits_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override;
  Status reduce(ThreadPool& pool, std::size_t num_partitions) override;
  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               merge::MergeStats* stats) override;
  std::uint64_t result_count() const override { return results_.size(); }
  std::string canonical_output() const override;

  // (joined key, score) sorted by key.
  const std::vector<std::pair<std::string, double>>& results() const {
    return results_;
  }
  // Lines parse() rejected (should be zero in a chain).
  std::uint64_t malformed_lines() const { return malformed_; }

 protected:
  explicit JoinSink(char separator) : separator_(separator) {}

  struct Entry {
    std::string key;
    std::uint64_t count = 0;
  };

  // Sums over the sorted entries, taken before the scoring wave. They are
  // exact u64, so they do not depend on how the wave slices the entries,
  // as per-slice sums of doubles past 2^53 would.
  struct Totals {
    std::uint64_t dictionary = 0;  // sum of dictionary counts
    std::uint64_t joined = 0;      // sum of joined counts
    std::uint64_t groups = 0;      // distinct prefixes before the separator
  };

  // The dictionary entries in key order.
  class Dictionary {
   public:
    explicit Dictionary(std::vector<const Entry*> entries)
        : entries_(std::move(entries)) {}
    // The count of dictionary key `word`, or 0 if there is none.
    std::uint64_t count(std::string_view word) const;

   private:
    std::vector<const Entry*> entries_;
  };

  // Reads one non-empty input line; false marks it malformed.
  virtual bool parse(std::string_view line, std::string_view* key,
                     std::uint64_t* count) const = 0;

  // The score of joined entry `e`, whose separator is at key offset `sep`,
  // or nullopt to leave it out of the results.
  virtual std::optional<double> score(const Entry& e, std::size_t sep,
                                      const Dictionary& dictionary,
                                      const Totals& totals) const = 0;

 private:
  // One per map task, each on its own cache lines. A task's lines are a
  // contiguous slice of an upstream's sorted output, so its run usually
  // arrives sorted. Runs per task rather than per thread keep the merge
  // deciding the order whichever threads claim the tasks: with one stripe
  // per thread, a job whose tasks one thread claimed alone leaves a single
  // run, which any merge, even a wrong one, passes through in order.
  struct alignas(64) Run {
    std::vector<Entry> entries;
    std::uint64_t malformed = 0;
  };

  const char separator_;
  std::size_t num_mappers_ = 0;
  std::vector<std::span<const char>> splits_;
  std::vector<Run> runs_;  // every round's, the current one's from round_base_
  std::size_t round_base_ = 0;
  std::vector<std::pair<std::string, double>> results_;
  std::uint64_t malformed_ = 0;
};

}  // namespace supmr::apps
