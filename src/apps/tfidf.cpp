#include "apps/tfidf.hpp"

#include <algorithm>
#include <cmath>

#include "common/units.hpp"

namespace supmr::apps {

bool TfIdfApp::parse(std::string_view line, std::string_view* key,
                     std::uint64_t* count) const {
  const std::size_t tab1 = line.find('\t');
  if (tab1 == std::string_view::npos || tab1 == 0) return false;
  const std::size_t tab2 = line.find('\t', tab1 + 1);
  if (tab2 == std::string_view::npos) {
    // Index line "word\tf1,f2,...": document frequency = 1 + the number of
    // commas (the posting list is non-empty by construction).
    const std::string_view postings = line.substr(tab1 + 1);
    *key = line.substr(0, tab1);
    *count = 1 + static_cast<std::uint64_t>(
                     std::count(postings.begin(), postings.end(), ','));
    return true;
  }
  // Doc-term line "<file_id>\t<word>\t<count>".
  const std::optional<std::uint64_t> value =
      parse_decimal(line.substr(tab2 + 1));
  if (!value) return false;
  *key = line.substr(0, tab2);
  *count = *value;
  return true;
}

std::optional<double> TfIdfApp::score(const Entry& e, std::size_t sep,
                                      const Dictionary& dictionary,
                                      const Totals& totals) const {
  const double df = static_cast<double>(
      dictionary.count(std::string_view(e.key).substr(sep + 1)));
  const double n_docs = static_cast<double>(totals.groups);
  if (df <= 0 || n_docs <= 0) return std::nullopt;  // word unseen by the index
  return static_cast<double>(e.count) * std::log(n_docs / df);
}

}  // namespace supmr::apps
