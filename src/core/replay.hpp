// The description every run is built from, and the conformance harness's
// self-contained repro format.
//
// A ReplaySpec captures everything one run needs: which application, how
// to regenerate the seeded corpus, the app's parameters, and the cell:
// the JobConfig knobs (ExecMode, MergeMode, threads, io, degrade), the
// chunking, and the input's fault plan and retry attempts. The run builder
// (apps/chains.hpp) turns it into an app, a source, a device stack, a
// cluster job or a graph; the CLI's app subcommands read their flags into
// one (over real files instead of a seeded corpus). The harness writes one
// as JSON when a cell diverges from the reference runtime; `supmr replay
// <file>` re-runs exactly that cell (src/ref/conformance.hpp).
// to_json/from_json round-trip byte for byte; from_json reads through the
// strict parse_json (common/json.hpp), so a wrong JSON type, an
// out-of-range integer or a repeated key is an error, not a silently
// coerced value.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "common/status.hpp"
#include "core/job_config.hpp"

namespace supmr::core {

// The seeded corpus generators a spec can name (all deterministic —
// src/wload/): text (wload::generate_text) | terasort
// (wload::teragen_to_string) | numeric (wload::generate_numeric) |
// multi-text (wload::generate_text_files, for MultiFileSource apps).
enum class CorpusKind { kText, kTerasort, kNumeric, kMultiText };

inline constexpr EnumName<CorpusKind> kCorpusKindNames[] = {
    {CorpusKind::kText, "text"},
    {CorpusKind::kTerasort, "terasort"},
    {CorpusKind::kNumeric, "numeric"},
    {CorpusKind::kMultiText, "multi-text"},
};

// How a graph cell hands a stage's output across an edge to the next stage
// (src/graph/): in-memory view source (the SupMR path) or write-out to a
// spill file and re-ingest (the baseline the bench compares against). The
// executor additionally spills memory edges whose payload exceeds the
// graph's handoff budget.
enum class GraphHandoff { kMemory, kFile };

inline constexpr EnumName<GraphHandoff> kGraphHandoffNames[] = {
    {GraphHandoff::kMemory, "memory"},
    {GraphHandoff::kFile, "file"},
};

// How to regenerate the cell's input corpus.
struct CorpusSpec {
  // One of kCorpusKindNames; kept as the spelled name because specs are
  // checked-in JSON (parsed_kind() yields the enum).
  std::string kind = "text";
  std::uint64_t bytes = 1 << 17;
  std::uint64_t seed = 1;
  std::uint64_t num_files = 6;  // multi-text only

  StatusOr<CorpusKind> parsed_kind() const {
    return enum_from_name(kCorpusKindNames, kind, "corpus kind");
  }
};

struct ReplaySpec {
  // Single-round apps: wordcount | xwordcount (budgeted word count) | sort |
  // grep | histogram | index | paircount | doctermcount. Chained graph apps
  // (src/graph/): pmi | tfidf | msort — these run a multi-stage JobGraph and
  // compare against ref::run_graph instead of run_ref.
  std::string app = "wordcount";
  CorpusSpec corpus;

  // Application parameters (only the ones the named app reads apply).
  std::uint64_t key_bytes = 10;       // sort
  std::uint64_t record_bytes = 100;   // sort
  std::int64_t hist_lo = 0;           // histogram
  std::int64_t hist_hi = 256;         // histogram
  std::uint64_t hist_bins = 32;       // histogram
  std::string grep_patterns = "th,he,zz";  // grep (comma-separated)
  std::uint64_t memory_budget = 0;    // xwordcount spill budget (bytes)

  // The config-lattice cell.
  ExecMode mode = ExecMode::kIngestMR;
  MergeMode merge_mode = MergeMode::kPWay;
  IoMode io = IoMode::kRead;  // optional in the JSON (older specs omit it)
  // from_json still reads the removed "cell.container" key, which selects
  // nothing: every app folds at emit time in its one container. "default"
  // parses for every app, and "combining" only for the apps that declared a
  // combiner before, where it names what they always do. It also reads
  // what the removed partitioned merge wrote: its merge name parses as
  // p-way, and its two partition counts select nothing.
  std::uint64_t threads = 2;
  std::uint64_t chunk_bytes = 64 * 1024;
  std::uint64_t files_per_chunk = 3;   // MultiFileSource apps
  bool degrade = false;
  std::string fault_plan;              // fault::FaultPlan grammar; "" = none
  // Total reads per device read, the first included (>= 1). Not a
  // JobConfig field: apps::with_faults stacks the fault::RetryingDevice
  // that makes them, so a chunk that keeps failing is read this many times.
  std::uint32_t retry_attempts = 1;

  // Graph cells only (optional in the JSON — single-round specs omit it):
  // edge handoff policy and the in-memory handoff budget in bytes (0 =
  // unlimited; a tiny budget forces the spill-at-boundary path).
  GraphHandoff graph_handoff = GraphHandoff::kMemory;
  std::uint64_t graph_budget = 0;

  // Cluster cells only (optional in the JSON — non-cluster specs omit the
  // whole object): nodes > 0 routes the cell through the sharded-shuffle
  // runtime (src/cluster/) with that many simulated worker nodes; the
  // bandwidth knobs (bytes/second) model per-node NICs, the shared uplink,
  // and per-node ingest disks. from_json still accepts the removed owner
  // merge budget as "budget": 0, so older specs parse.
  std::uint64_t cluster_nodes = 0;
  std::uint64_t cluster_link_bps = 0;
  std::uint64_t cluster_uplink_bps = 0;
  std::uint64_t cluster_disk_bps = 0;

  // True for the chained graph apps (pmi | tfidf | msort).
  bool is_graph() const {
    return app == "pmi" || app == "tfidf" || app == "msort";
  }

  // True when the cell runs through the cluster runtime.
  bool is_cluster() const { return cluster_nodes > 0; }

  // The JobConfig this spec's cell runs: mode, merge, threads (map and
  // reduce), io, degrade and the cluster knobs. The only code that copies
  // cell fields into a JobConfig. The fault plan and retry attempts shape
  // the input's device stack instead (apps::with_faults).
  JobConfig job_config() const;

  std::string to_json() const;
  // Strict parse of a spec produced by to_json (or hand-written in the same
  // shape). Unknown keys, malformed JSON, wrong value types, integers
  // outside their field's range and out-of-range enum names are errors — a
  // repro file that drifted from the schema fails loudly.
  static StatusOr<ReplaySpec> from_json(std::string_view text);
  // The same over a parsed document (a serve spec's job "spec").
  static StatusOr<ReplaySpec> from_json(const JsonValue& doc);
};

// Enum <-> name helpers shared by the spec parsers and the CLI — thin
// wrappers over the kExecModeNames / kMergeModeNames / kIoModeNames /
// kGraphHandoffNames tables (common/enum_names.hpp). exec_mode_name()
// lives in job_config.hpp; these complete the set.
std::string_view merge_mode_name(MergeMode mode);
std::string_view graph_handoff_name(GraphHandoff handoff);
StatusOr<ExecMode> exec_mode_from_name(std::string_view name);
StatusOr<MergeMode> merge_mode_from_name(std::string_view name);
StatusOr<IoMode> io_mode_from_name(std::string_view name);
StatusOr<GraphHandoff> graph_handoff_from_name(std::string_view name);

// Whether key_bytes and record_bytes describe records the sort apps (sort,
// msort) can handle: a key of at least one byte that ends before the
// record's "\r\n" terminator (1 <= key_bytes <= record_bytes - 2), in a
// record that fits their 32-bit options. The error names the two values
// `key_name` and `record_name`, so the CLI reports its flags and from_json
// its keys.
Status check_sort_geometry(std::uint64_t key_bytes, std::uint64_t record_bytes,
                           std::string_view key_name,
                           std::string_view record_name);

// The most OS threads a count from outside the program may start: a run's
// map and reduce pool, one pool per node for a cluster run, the serve
// pool, and serve's client threads. ThreadPool and run_cluster start every
// thread at once, so a typo must fail before any of them starts.
inline constexpr std::uint64_t kMaxThreads = 1024;

// Whether `threads` per node on `nodes` nodes (0 = not a cluster run) stays
// within kMaxThreads: threads x max(1, nodes) <= kMaxThreads. The error
// names `threads_name` and `nodes_name`, so the CLI reports its flags and
// from_json its keys.
Status check_thread_count(std::uint64_t threads, std::uint64_t nodes,
                          std::string_view threads_name,
                          std::string_view nodes_name);

}  // namespace supmr::core
