#include "core/replay.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <type_traits>

#include "common/json.hpp"

namespace supmr::core {

std::string_view merge_mode_name(MergeMode mode) {
  return enum_to_name(kMergeModeNames, mode);
}

std::string_view graph_handoff_name(GraphHandoff handoff) {
  return enum_to_name(kGraphHandoffNames, handoff);
}

StatusOr<ExecMode> exec_mode_from_name(std::string_view name) {
  return enum_from_name(kExecModeNames, name, "exec mode");
}

StatusOr<MergeMode> merge_mode_from_name(std::string_view name) {
  return enum_from_name(kMergeModeNames, name, "merge mode");
}

StatusOr<IoMode> io_mode_from_name(std::string_view name) {
  return enum_from_name(ingest::kIoModeNames, name, "io mode");
}

StatusOr<GraphHandoff> graph_handoff_from_name(std::string_view name) {
  return enum_from_name(kGraphHandoffNames, name, "graph handoff");
}

Status check_sort_geometry(std::uint64_t key_bytes, std::uint64_t record_bytes,
                           std::string_view key_name,
                           std::string_view record_name) {
  constexpr std::uint64_t kMaxRecordBytes =
      std::numeric_limits<std::uint32_t>::max();
  if (record_bytes < 3 || record_bytes > kMaxRecordBytes) {
    return Status::InvalidArgument(
        std::string(record_name) + " must be in [3, " +
        std::to_string(kMaxRecordBytes) + "], got " +
        std::to_string(record_bytes));
  }
  if (key_bytes < 1 || key_bytes > record_bytes - 2) {
    return Status::InvalidArgument(
        std::string(key_name) + " must be in [1, " +
        std::to_string(record_bytes - 2) + "] for " +
        std::string(record_name) + "=" + std::to_string(record_bytes) +
        ", got " + std::to_string(key_bytes));
  }
  return Status::Ok();
}

Status check_thread_count(std::uint64_t threads, std::uint64_t nodes,
                          std::string_view threads_name,
                          std::string_view nodes_name) {
  if (threads <= kMaxThreads / std::max<std::uint64_t>(1, nodes)) {
    return Status::Ok();
  }
  std::string what = std::string(threads_name) + "=" + std::to_string(threads);
  if (nodes > 1) {
    what += " x " + std::string(nodes_name) + "=" + std::to_string(nodes);
  }
  return Status::InvalidArgument(what + " starts more than " +
                                 std::to_string(kMaxThreads) + " threads");
}

JobConfig ReplaySpec::job_config() const {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.merge_mode = merge_mode;
  cfg.num_map_threads = threads;
  cfg.num_reduce_threads = threads;
  cfg.io = io;
  cfg.degrade = degrade;
  cfg.num_nodes = cluster_nodes;
  cfg.node_link_bps = static_cast<double>(cluster_link_bps);
  cfg.uplink_bps = static_cast<double>(cluster_uplink_bps);
  cfg.node_disk_bps = static_cast<double>(cluster_disk_bps);
  return cfg;
}

std::string ReplaySpec::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("app", app);
  w.key("corpus");
  w.begin_object();
  w.kv("kind", corpus.kind);
  w.kv("bytes", corpus.bytes);
  w.kv("seed", corpus.seed);
  w.kv("num_files", corpus.num_files);
  w.end_object();
  w.key("params");
  w.begin_object();
  w.kv("key_bytes", key_bytes);
  w.kv("record_bytes", record_bytes);
  w.kv("hist_lo", hist_lo);
  w.kv("hist_hi", hist_hi);
  w.kv("hist_bins", hist_bins);
  w.kv("grep_patterns", grep_patterns);
  w.kv("memory_budget", memory_budget);
  w.end_object();
  w.key("cell");
  w.begin_object();
  w.kv("mode", exec_mode_name(mode));
  w.kv("merge", merge_mode_name(merge_mode));
  w.kv("io", io_mode_name(io));
  w.kv("threads", threads);
  w.kv("chunk_bytes", chunk_bytes);
  w.kv("files_per_chunk", files_per_chunk);
  w.kv("degrade", degrade);
  w.kv("fault_plan", fault_plan);
  w.kv("retry_attempts", std::uint64_t{retry_attempts});
  w.end_object();
  // Graph cells only; written for every spec, optional on parse (specs
  // checked in before graphs existed omit the whole object).
  w.key("graph");
  w.begin_object();
  w.kv("handoff", graph_handoff_name(graph_handoff));
  w.kv("budget", graph_budget);
  w.end_object();
  // Cluster cells only; written for every spec, optional on parse (specs
  // checked in before the cluster runtime existed omit the whole object).
  w.key("cluster");
  w.begin_object();
  w.kv("nodes", cluster_nodes);
  w.kv("link_bps", cluster_link_bps);
  w.kv("uplink_bps", cluster_uplink_bps);
  w.kv("disk_bps", cluster_disk_bps);
  w.end_object();
  w.end_object();
  return w.str();
}

namespace {

// Whether the named spec app accepted the removed cell.container=combining.
bool app_has_combiner(std::string_view app) {
  return app == "wordcount" || app == "histogram" || app == "index" ||
         app == "paircount" || app == "doctermcount";
}

// Typed field extraction over the spec's leaves, keyed by dotted path
// ("cell.mode"). Every key the spec writes must be consumed, and every
// consumed key must exist — schema drift fails loudly in both directions.
class Fields {
 public:
  // Adds the leaves of `object`; nested objects extend the path.
  Status add(const JsonValue& object, const std::string& prefix) {
    for (const auto& [key, value] : object.members()) {
      const std::string path = prefix.empty() ? key : prefix + "." + key;
      if (value.type() == JsonValue::Type::kObject) {
        SUPMR_RETURN_IF_ERROR(add(value, path));
      } else if (!values_.emplace(path, &value).second) {
        return Status::InvalidArgument("replay spec: duplicate key " + path);
      }
    }
    return Status::Ok();
  }

  template <typename T>
  Status take(const std::string& key, T& out) {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return Status::InvalidArgument("replay spec: missing key " + key);
    }
    StatusOr<T> value = it->second->as<T>();
    values_.erase(it);
    if (!value.ok()) {
      return Status::InvalidArgument("replay spec: " + key + ": " +
                                     value.status().message());
    }
    out = std::move(*value);
    return Status::Ok();
  }

  // take(), but a missing key yields `def` instead of an error — for
  // fields added after specs were already checked in (schema growth stays
  // backward-compatible; unknown keys still fail via check_empty).
  template <typename T>
  Status take_or(const std::string& key, T& out, std::type_identity_t<T> def) {
    if (values_.count(key) == 0) {
      out = def;
      return Status::Ok();
    }
    return take(key, out);
  }

  Status check_empty() const {
    if (values_.empty()) return Status::Ok();
    return Status::InvalidArgument("replay spec: unknown key " +
                                   values_.begin()->first);
  }

 private:
  std::map<std::string, const JsonValue*> values_;
};

}  // namespace

StatusOr<ReplaySpec> ReplaySpec::from_json(std::string_view text) {
  StatusOr<JsonValue> doc = parse_json(text);
  if (!doc.ok()) {
    return Status::InvalidArgument("replay spec: " + doc.status().message());
  }
  return from_json(*doc);
}

StatusOr<ReplaySpec> ReplaySpec::from_json(const JsonValue& doc) {
  if (doc.type() != JsonValue::Type::kObject) {
    return Status::InvalidArgument("replay spec: expected an object");
  }
  Fields fields;
  SUPMR_RETURN_IF_ERROR(fields.add(doc, ""));

  ReplaySpec spec;
  SUPMR_RETURN_IF_ERROR(fields.take("app", spec.app));
  SUPMR_RETURN_IF_ERROR(fields.take("corpus.kind", spec.corpus.kind));
  SUPMR_RETURN_IF_ERROR(fields.take("corpus.bytes", spec.corpus.bytes));
  SUPMR_RETURN_IF_ERROR(fields.take("corpus.seed", spec.corpus.seed));
  SUPMR_RETURN_IF_ERROR(fields.take("corpus.num_files", spec.corpus.num_files));
  SUPMR_RETURN_IF_ERROR(fields.take("params.key_bytes", spec.key_bytes));
  SUPMR_RETURN_IF_ERROR(fields.take("params.record_bytes", spec.record_bytes));
  SUPMR_RETURN_IF_ERROR(fields.take("params.hist_lo", spec.hist_lo));
  SUPMR_RETURN_IF_ERROR(fields.take("params.hist_hi", spec.hist_hi));
  SUPMR_RETURN_IF_ERROR(fields.take("params.hist_bins", spec.hist_bins));
  SUPMR_RETURN_IF_ERROR(
      fields.take("params.grep_patterns", spec.grep_patterns));
  SUPMR_RETURN_IF_ERROR(
      fields.take("params.memory_budget", spec.memory_budget));

  std::string mode, merge, io, container;
  SUPMR_RETURN_IF_ERROR(fields.take("cell.mode", mode));
  SUPMR_RETURN_IF_ERROR(fields.take("cell.merge", merge));
  SUPMR_RETURN_IF_ERROR(fields.take_or("cell.io", io, "read"));
  SUPMR_RETURN_IF_ERROR(fields.take_or("cell.container", container, "default"));
  if (merge == "partitioned") merge = "pway";  // the removed partitioned merge
  SUPMR_ASSIGN_OR_RETURN(spec.mode, exec_mode_from_name(mode));
  SUPMR_ASSIGN_OR_RETURN(spec.merge_mode, merge_mode_from_name(merge));
  SUPMR_ASSIGN_OR_RETURN(spec.io, io_mode_from_name(io));
  if (container != "default" && container != "combining") {
    return Status::InvalidArgument("unknown container mode: " + container +
                                   " (want default|combining)");
  }
  SUPMR_RETURN_IF_ERROR(fields.take("cell.threads", spec.threads));
  // The partition counts of the removed partitioned merge select nothing.
  std::uint64_t removed_partitions = 0;
  SUPMR_RETURN_IF_ERROR(
      fields.take_or("params.app_partitions", removed_partitions, 0));
  SUPMR_RETURN_IF_ERROR(
      fields.take_or("cell.merge_partitions", removed_partitions, 0));
  SUPMR_RETURN_IF_ERROR(fields.take("cell.chunk_bytes", spec.chunk_bytes));
  SUPMR_RETURN_IF_ERROR(
      fields.take("cell.files_per_chunk", spec.files_per_chunk));
  SUPMR_RETURN_IF_ERROR(fields.take("cell.degrade", spec.degrade));
  SUPMR_RETURN_IF_ERROR(fields.take("cell.fault_plan", spec.fault_plan));
  SUPMR_RETURN_IF_ERROR(
      fields.take("cell.retry_attempts", spec.retry_attempts));

  std::string handoff;
  SUPMR_RETURN_IF_ERROR(fields.take_or("graph.handoff", handoff, "memory"));
  SUPMR_ASSIGN_OR_RETURN(spec.graph_handoff, graph_handoff_from_name(handoff));
  SUPMR_RETURN_IF_ERROR(fields.take_or("graph.budget", spec.graph_budget, 0));
  SUPMR_RETURN_IF_ERROR(fields.take_or("cluster.nodes", spec.cluster_nodes, 0));
  SUPMR_RETURN_IF_ERROR(
      fields.take_or("cluster.link_bps", spec.cluster_link_bps, 0));
  SUPMR_RETURN_IF_ERROR(
      fields.take_or("cluster.uplink_bps", spec.cluster_uplink_bps, 0));
  SUPMR_RETURN_IF_ERROR(
      fields.take_or("cluster.disk_bps", spec.cluster_disk_bps, 0));
  // The owner merge budget is gone; older specs carry it as 0.
  std::uint64_t removed_budget = 0;
  SUPMR_RETURN_IF_ERROR(fields.take_or("cluster.budget", removed_budget, 0));
  if (removed_budget != 0) {
    return Status::InvalidArgument(
        "replay spec: cluster.budget was removed (owners merge in memory); "
        "only 0 is accepted");
  }
  SUPMR_RETURN_IF_ERROR(fields.check_empty());

  if (spec.app != "wordcount" && spec.app != "xwordcount" &&
      spec.app != "sort" && spec.app != "grep" && spec.app != "histogram" &&
      spec.app != "index" && spec.app != "paircount" &&
      spec.app != "doctermcount" && !spec.is_graph()) {
    return Status::InvalidArgument("replay spec: unknown app " + spec.app);
  }
  if (container == "combining" && !app_has_combiner(spec.app)) {
    return Status::InvalidArgument(
        "replay spec: container=combining: app " + spec.app +
        " declares no combiner");
  }
  if (spec.app == "sort" || spec.app == "msort") {
    const Status geometry =
        check_sort_geometry(spec.key_bytes, spec.record_bytes,
                            "params.key_bytes", "params.record_bytes");
    if (!geometry.ok()) {
      return Status::InvalidArgument("replay spec: " + geometry.message());
    }
  }
  SUPMR_RETURN_IF_ERROR(spec.corpus.parsed_kind().status());
  if (spec.threads == 0) {
    return Status::InvalidArgument("replay spec: threads must be >= 1");
  }
  const Status thread_count = check_thread_count(
      spec.threads, spec.cluster_nodes, "cell.threads", "cluster.nodes");
  if (!thread_count.ok()) {
    return Status::InvalidArgument("replay spec: " + thread_count.message());
  }
  if (spec.retry_attempts == 0) {
    return Status::InvalidArgument("replay spec: retry_attempts must be >= 1");
  }
  if (spec.is_cluster() && spec.is_graph()) {
    return Status::InvalidArgument(
        "replay spec: cluster cells run single-round apps, not graphs");
  }
  if (!spec.is_cluster() &&
      (spec.cluster_link_bps != 0 || spec.cluster_uplink_bps != 0 ||
       spec.cluster_disk_bps != 0)) {
    return Status::InvalidArgument(
        "replay spec: cluster bandwidth knobs require cluster.nodes");
  }
  return spec;
}

}  // namespace supmr::core
