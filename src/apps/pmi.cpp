#include "apps/pmi.hpp"

#include <cmath>

#include "common/units.hpp"

namespace supmr::apps {

// "key\tcount".
bool PmiApp::parse(std::string_view line, std::string_view* key,
                   std::uint64_t* count) const {
  const std::size_t tab = line.find('\t');
  if (tab == std::string_view::npos || tab == 0) return false;
  const std::optional<std::uint64_t> value =
      parse_decimal(line.substr(tab + 1));
  if (!value) return false;
  *key = line.substr(0, tab);
  *count = *value;
  return true;
}

std::optional<double> PmiApp::score(const Entry& e, std::size_t sep,
                                    const Dictionary& dictionary,
                                    const Totals& totals) const {
  const std::string_view pair = e.key;
  const double c1 = static_cast<double>(dictionary.count(pair.substr(0, sep)));
  const double c2 = static_cast<double>(dictionary.count(pair.substr(sep + 1)));
  const double n_words = static_cast<double>(totals.dictionary);
  const double n_pairs = static_cast<double>(totals.joined);
  if (c1 <= 0 || c2 <= 0 || n_pairs <= 0 || n_words <= 0) return std::nullopt;
  const double joint = static_cast<double>(e.count) / n_pairs;
  const double indep = (c1 / n_words) * (c2 / n_words);
  return std::log(joint / indep);
}

}  // namespace supmr::apps
