// PMI join — the sink stage of the PMI chain (docs/graphs.md).
//
// Input is the concatenation of two upstream canonical outputs over the
// SAME text corpus: WordCountApp ("word\tcount\n") and PairCountApp
// ("w1 w2\tcount\n"). Every line is "key\tcount" with a globally unique key;
// a key with a space is a bigram (a joined key of the JoinSink skeleton,
// join_sink.hpp), one without is a unigram (a dictionary key). For every
// pair the join computes the pointwise mutual information
//
//   pmi(w1, w2) = ln( (c12 / N_pairs) / ((c1 / N_words) * (c2 / N_words)) )
//
// with N_words and N_pairs the exact sums of the unigram and bigram counts,
// and emits "w1 w2\t<pmi>\n" ("%.6f") in pair-key order. The skeleton sorts
// the lines under the job's merge and scores the pairs on every worker.
// This is the YTsaurus-style chained MapReduce shape: two map-heavy jobs
// fan into a cheap join.
#pragma once

#include "apps/join_sink.hpp"

namespace supmr::apps {

class PmiApp final : public JoinSink {
 public:
  PmiApp() : JoinSink(' ') {}

 private:
  bool parse(std::string_view line, std::string_view* key,
             std::uint64_t* count) const override;
  std::optional<double> score(const Entry& e, std::size_t sep,
                              const Dictionary& dictionary,
                              const Totals& totals) const override;
};

}  // namespace supmr::apps
