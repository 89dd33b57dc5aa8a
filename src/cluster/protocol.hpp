// Shuffle protocols: how per-node canonical outputs are split into records,
// routed across worker nodes, and reassembled into the global output.
//
// The cluster runtime (cluster_job.hpp) never looks inside an application's
// containers — it shuffles the app's *canonical output* (the byte encoding
// every app already defines for oracle conformance). Each ShardKind pins
// down the record grammar, the record order routing cuts by, and the
// owner-side merge (one merge::LoserTree pass over the owner's sorted
// inboxes) that makes the concatenation of owner outputs byte-identical to
// a sequential run:
//   kSortedKeys    "key\tu64\n" lines sorted by key, keys unique per run;
//                  equal keys across runs fold by summing the value.
//   kFixedRecords  fixed-width records in full-record memcmp order; equal
//                  records are byte-identical so tie order is immaterial.
// Everything here is a pure function over string views into the node
// canonicals — no I/O, no threads — so the error paths are unit-testable in
// isolation (tests/cluster_property_test.cpp). The merges write into the
// caller's buffer: each owner's window of the one output string.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace supmr::cluster {

// Splits newline-terminated lines; each view INCLUDES its trailing '\n'.
// Rejects a non-empty input whose last byte is not '\n'.
StatusOr<std::vector<std::string_view>> split_lines(std::string_view bytes);

// Splits fixed-width records. Rejects record_bytes == 0 and inputs that are
// not a whole number of records.
StatusOr<std::vector<std::string_view>> split_fixed(std::string_view bytes,
                                                    std::size_t record_bytes);

// Key of a sorted-keys line: the prefix up to the LAST tab (keys may
// themselves contain tabs; values never do). A line without a tab keys as
// the whole line minus its newline.
std::string_view line_key(std::string_view line);

// The decimal u64 between the last tab and the trailing newline, which the
// line must end in; a value past 2^64 - 1 is an error, not a wrap.
StatusOr<std::uint64_t> line_value(std::string_view line);

// Orders sorted-keys lines by key only, so equal keys route to the same
// partition and fold at the owner.
struct SortedKeyLess {
  bool operator()(std::string_view a, std::string_view b) const {
    return line_key(a) < line_key(b);
  }
};

// K-way merge (one merge::LoserTree over the runs) of per-sender runs of
// sorted-keys lines (each run sorted by key, keys unique within a run),
// folding equal keys across runs by summing their values. Writes from `out`
// and returns the end of what it wrote, which is within the runs' total
// bytes: a folded line is never longer than the lines it folds, since
// digits(a + b) <= digits(a) + digits(b) and every line ends in '\n'.
StatusOr<char*> merge_sorted_keys(
    const std::vector<std::vector<std::string_view>>& runs, char* out);

// K-way merge (one merge::LoserTree over the runs) of per-sender runs of
// fixed-width records, each run already in full-record memcmp order. Ties
// are unordered; equal records are byte-identical, so the output bytes do
// not depend on their order. Writes exactly the runs' total bytes from
// `out` and returns their end.
char* merge_fixed_records(
    const std::vector<std::vector<std::string_view>>& runs, char* out);

}  // namespace supmr::cluster
