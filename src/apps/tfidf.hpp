// TF-IDF join — the sink stage of the TF-IDF chain (docs/graphs.md).
//
// Input is the concatenation of two upstream canonical outputs over the
// SAME multi-file corpus: InvertedIndexApp ("word\tf1,f2,...\n", one tab)
// and DocTermCountApp ("<file_id>\t<word>\t<count>\n", two tabs). The tab
// count is the discriminator. An index line becomes the dictionary entry
// (word, df = |posting|); a doc-term line becomes the joined entry
// ("<file_id>\t<word>", count) of the JoinSink skeleton (join_sink.hpp).
// N is the number of distinct documents among the doc-term lines. The join
// emits, per (doc, term) whose word the index knows,
//
//   tfidf = count * ln(N / df)
//
// as "<file_id>\t<word>\t<tfidf>\n" ("%.6f") in composite-key order — the
// same order DocTermCountApp produces. The skeleton sorts the lines under
// the job's merge and scores the terms on every worker.
#pragma once

#include "apps/join_sink.hpp"

namespace supmr::apps {

class TfIdfApp final : public JoinSink {
 public:
  TfIdfApp() : JoinSink('\t') {}

 private:
  bool parse(std::string_view line, std::string_view* key,
             std::uint64_t* count) const override;
  std::optional<double> score(const Entry& e, std::size_t sep,
                              const Dictionary& dictionary,
                              const Totals& totals) const override;
};

}  // namespace supmr::apps
