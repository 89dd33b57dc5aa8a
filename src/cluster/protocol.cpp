#include "cluster/protocol.hpp"

#include <algorithm>
#include <charconv>

#include "common/units.hpp"
#include "merge/loser_tree.hpp"

namespace supmr::cluster {

StatusOr<std::vector<std::string_view>> split_lines(std::string_view bytes) {
  std::vector<std::string_view> lines;
  if (bytes.empty()) return lines;
  if (bytes.back() != '\n') {
    return Status::InvalidArgument(
        "cluster: canonical output is not newline-terminated");
  }
  std::size_t start = 0;
  while (start < bytes.size()) {
    const std::size_t nl = bytes.find('\n', start);
    lines.push_back(bytes.substr(start, nl - start + 1));
    start = nl + 1;
  }
  return lines;
}

StatusOr<std::vector<std::string_view>> split_fixed(std::string_view bytes,
                                                    std::size_t record_bytes) {
  if (record_bytes == 0) {
    return Status::InvalidArgument("cluster: record_bytes must be >= 1");
  }
  if (bytes.size() % record_bytes != 0) {
    return Status::InvalidArgument(
        "cluster: canonical output is not a whole number of " +
        std::to_string(record_bytes) + "-byte records");
  }
  std::vector<std::string_view> records;
  records.reserve(bytes.size() / record_bytes);
  for (std::size_t off = 0; off < bytes.size(); off += record_bytes) {
    records.push_back(bytes.substr(off, record_bytes));
  }
  return records;
}

std::string_view line_key(std::string_view line) {
  if (!line.empty() && line.back() == '\n') line.remove_suffix(1);
  const std::size_t tab = line.rfind('\t');
  if (tab == std::string_view::npos) return line;
  return line.substr(0, tab);
}

StatusOr<std::uint64_t> line_value(std::string_view line) {
  if (line.empty() || line.back() != '\n') {
    return Status::InvalidArgument("cluster: line has no newline: \"" +
                                   std::string(line) + "\"");
  }
  line.remove_suffix(1);
  const std::size_t tab = line.rfind('\t');
  if (tab == std::string_view::npos) {
    return Status::InvalidArgument("cluster: line has no value field: \"" +
                                   std::string(line) + "\"");
  }
  const std::optional<std::uint64_t> value =
      parse_decimal(line.substr(tab + 1));
  if (!value) {
    return Status::InvalidArgument(
        "cluster: value is not a decimal u64 in line: \"" +
        std::string(line) + "\"");
  }
  return *value;
}

namespace {

std::vector<std::span<const std::string_view>> spans(
    const std::vector<std::vector<std::string_view>>& runs) {
  return {runs.begin(), runs.end()};
}

}  // namespace

StatusOr<char*> merge_sorted_keys(
    const std::vector<std::vector<std::string_view>>& runs, char* out) {
  merge::LoserTree<std::string_view, SortedKeyLess> tree(spans(runs),
                                                        SortedKeyLess{});
  while (!tree.empty()) {
    // Equal keys leave the tree back to back; fold them into one line.
    const std::string_view key = line_key(tree.top().head());
    std::uint64_t sum = 0;
    while (!tree.empty() && line_key(tree.top().head()) == key) {
      SUPMR_ASSIGN_OR_RETURN(const std::uint64_t v,
                             line_value(tree.top().head()));
      sum += v;
      tree.advance();
    }
    char digits[20];  // a u64 has at most 20 decimal digits
    char* const digits_end = std::to_chars(digits, std::end(digits), sum).ptr;
    out = std::ranges::copy(key, out).out;
    *out++ = '\t';
    out = std::ranges::copy(digits, digits_end, out).out;
    *out++ = '\n';
  }
  return out;
}

char* merge_fixed_records(
    const std::vector<std::vector<std::string_view>>& runs, char* out) {
  merge::LoserTree<std::string_view, std::less<std::string_view>> tree(
      spans(runs), std::less<std::string_view>{});
  while (!tree.empty()) out = std::ranges::copy(tree.pop(), out).out;
  return out;
}

}  // namespace supmr::cluster
