#include "core/replay.hpp"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <map>

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

StatusOr<ContainerMode> container_mode_from_name(std::string_view name) {
  return enum_from_name(kContainerModeNames, name, "container mode");
}

bool app_has_combiner(std::string_view app) {
  return app == "wordcount" || app == "histogram" || app == "index" ||
         app == "paircount" || app == "doctermcount";
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
  w.kv("app_partitions", app_partitions);
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
  w.kv("container", container_mode_name(container));
  w.kv("threads", threads);
  w.kv("merge_partitions", merge_partitions);
  w.kv("chunk_bytes", chunk_bytes);
  w.kv("files_per_chunk", files_per_chunk);
  w.kv("degrade", degrade);
  w.kv("fault_plan", fault_plan);
  w.kv("retry_attempts", retry_attempts);
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
  w.kv("budget", cluster_budget);
  w.end_object();
  w.end_object();
  return w.str();
}

namespace {

// Minimal strict JSON reader for the spec shape: objects of string /
// number / bool values, nested objects flattened to dotted keys
// ("cell.mode"). No arrays, no null — the spec never emits them.
class SpecParser {
 public:
  explicit SpecParser(std::string_view text) : text_(text) {}

  Status parse(std::map<std::string, std::string>& out) {
    SUPMR_RETURN_IF_ERROR(parse_object("", out));
    skip_ws();
    if (pos_ != text_.size()) {
      return error("trailing characters after the top-level object");
    }
    return Status::Ok();
  }

 private:
  Status parse_object(const std::string& prefix,
                      std::map<std::string, std::string>& out) {
    SUPMR_RETURN_IF_ERROR(expect('{'));
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Status::Ok();
    }
    while (true) {
      skip_ws();
      std::string key;
      SUPMR_RETURN_IF_ERROR(parse_string(key));
      skip_ws();
      SUPMR_RETURN_IF_ERROR(expect(':'));
      skip_ws();
      const std::string full = prefix.empty() ? key : prefix + "." + key;
      if (peek() == '{') {
        SUPMR_RETURN_IF_ERROR(parse_object(full, out));
      } else if (peek() == '"') {
        std::string value;
        SUPMR_RETURN_IF_ERROR(parse_string(value));
        out[full] = value;
      } else {
        SUPMR_RETURN_IF_ERROR(parse_scalar(full, out));
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      return expect('}');
    }
  }

  Status parse_string(std::string& out) {
    SUPMR_RETURN_IF_ERROR(expect('"'));
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          default:
            return error(std::string("unsupported escape \\") + esc);
        }
      } else {
        out += c;
      }
    }
    return error("unterminated string");
  }

  // Numbers and booleans, stored as their literal text.
  Status parse_scalar(const std::string& key,
                      std::map<std::string, std::string>& out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start) return error("expected a value");
    out[key] = std::string(text_.substr(start, pos_ - start));
    return Status::Ok();
  }

  Status expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return error(std::string("expected '") + c + "'");
    }
    ++pos_;
    return Status::Ok();
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  Status error(const std::string& what) const {
    return Status::InvalidArgument("replay spec: " + what + " at byte " +
                                   std::to_string(pos_));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// Typed field extraction. Every key the spec writes must be consumed, and
// every consumed key must exist — schema drift fails loudly in both
// directions.
class Fields {
 public:
  explicit Fields(std::map<std::string, std::string> values)
      : values_(std::move(values)) {}

  Status take_string(const std::string& key, std::string& out) {
    SUPMR_ASSIGN_OR_RETURN(std::string raw, take(key));
    out = std::move(raw);
    return Status::Ok();
  }

  Status take_u64(const std::string& key, std::uint64_t& out) {
    SUPMR_ASSIGN_OR_RETURN(std::string raw, take(key));
    char* end = nullptr;
    out = std::strtoull(raw.c_str(), &end, 10);
    if (end == raw.c_str() || *end != '\0') {
      return Status::InvalidArgument("replay spec: bad integer for " + key +
                                     ": " + raw);
    }
    return Status::Ok();
  }

  Status take_i64(const std::string& key, std::int64_t& out) {
    SUPMR_ASSIGN_OR_RETURN(std::string raw, take(key));
    char* end = nullptr;
    out = std::strtoll(raw.c_str(), &end, 10);
    if (end == raw.c_str() || *end != '\0') {
      return Status::InvalidArgument("replay spec: bad integer for " + key +
                                     ": " + raw);
    }
    return Status::Ok();
  }

  Status take_bool(const std::string& key, bool& out) {
    SUPMR_ASSIGN_OR_RETURN(std::string raw, take(key));
    if (raw == "true") {
      out = true;
    } else if (raw == "false") {
      out = false;
    } else {
      return Status::InvalidArgument("replay spec: bad bool for " + key +
                                     ": " + raw);
    }
    return Status::Ok();
  }

  // Like take_string, but a missing key yields `def` instead of an error —
  // for fields added after specs were already checked in (schema growth
  // stays backward-compatible; unknown keys still fail via check_empty).
  Status take_string_or(const std::string& key, std::string& out,
                        std::string_view def) {
    if (values_.find(key) == values_.end()) {
      out = std::string(def);
      return Status::Ok();
    }
    return take_string(key, out);
  }

  // take_u64, but a missing key yields `def` (same backward-compat contract
  // as take_string_or).
  Status take_u64_or(const std::string& key, std::uint64_t& out,
                     std::uint64_t def) {
    if (values_.find(key) == values_.end()) {
      out = def;
      return Status::Ok();
    }
    return take_u64(key, out);
  }

  Status check_empty() const {
    if (values_.empty()) return Status::Ok();
    return Status::InvalidArgument("replay spec: unknown key " +
                                   values_.begin()->first);
  }

 private:
  StatusOr<std::string> take(const std::string& key) {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return Status::InvalidArgument("replay spec: missing key " + key);
    }
    std::string value = std::move(it->second);
    values_.erase(it);
    return value;
  }

  std::map<std::string, std::string> values_;
};

}  // namespace

StatusOr<ReplaySpec> ReplaySpec::from_json(std::string_view text) {
  std::map<std::string, std::string> raw;
  SpecParser parser(text);
  SUPMR_RETURN_IF_ERROR(parser.parse(raw));
  Fields fields(std::move(raw));

  ReplaySpec spec;
  SUPMR_RETURN_IF_ERROR(fields.take_string("app", spec.app));
  SUPMR_RETURN_IF_ERROR(fields.take_string("corpus.kind", spec.corpus.kind));
  SUPMR_RETURN_IF_ERROR(fields.take_u64("corpus.bytes", spec.corpus.bytes));
  SUPMR_RETURN_IF_ERROR(fields.take_u64("corpus.seed", spec.corpus.seed));
  SUPMR_RETURN_IF_ERROR(
      fields.take_u64("corpus.num_files", spec.corpus.num_files));
  SUPMR_RETURN_IF_ERROR(fields.take_u64("params.key_bytes", spec.key_bytes));
  SUPMR_RETURN_IF_ERROR(
      fields.take_u64("params.record_bytes", spec.record_bytes));
  SUPMR_RETURN_IF_ERROR(
      fields.take_u64("params.app_partitions", spec.app_partitions));
  SUPMR_RETURN_IF_ERROR(fields.take_i64("params.hist_lo", spec.hist_lo));
  SUPMR_RETURN_IF_ERROR(fields.take_i64("params.hist_hi", spec.hist_hi));
  SUPMR_RETURN_IF_ERROR(fields.take_u64("params.hist_bins", spec.hist_bins));
  SUPMR_RETURN_IF_ERROR(
      fields.take_string("params.grep_patterns", spec.grep_patterns));
  SUPMR_RETURN_IF_ERROR(
      fields.take_u64("params.memory_budget", spec.memory_budget));

  std::string mode, merge, io, container;
  SUPMR_RETURN_IF_ERROR(fields.take_string("cell.mode", mode));
  SUPMR_RETURN_IF_ERROR(fields.take_string("cell.merge", merge));
  SUPMR_RETURN_IF_ERROR(fields.take_string_or("cell.io", io, "read"));
  SUPMR_RETURN_IF_ERROR(
      fields.take_string_or("cell.container", container, "default"));
  SUPMR_ASSIGN_OR_RETURN(spec.mode, exec_mode_from_name(mode));
  SUPMR_ASSIGN_OR_RETURN(spec.merge_mode, merge_mode_from_name(merge));
  SUPMR_ASSIGN_OR_RETURN(spec.io, io_mode_from_name(io));
  SUPMR_ASSIGN_OR_RETURN(spec.container, container_mode_from_name(container));
  SUPMR_RETURN_IF_ERROR(fields.take_u64("cell.threads", spec.threads));
  SUPMR_RETURN_IF_ERROR(
      fields.take_u64("cell.merge_partitions", spec.merge_partitions));
  SUPMR_RETURN_IF_ERROR(fields.take_u64("cell.chunk_bytes", spec.chunk_bytes));
  SUPMR_RETURN_IF_ERROR(
      fields.take_u64("cell.files_per_chunk", spec.files_per_chunk));
  SUPMR_RETURN_IF_ERROR(fields.take_bool("cell.degrade", spec.degrade));
  SUPMR_RETURN_IF_ERROR(fields.take_string("cell.fault_plan", spec.fault_plan));
  SUPMR_RETURN_IF_ERROR(
      fields.take_u64("cell.retry_attempts", spec.retry_attempts));

  std::string handoff;
  SUPMR_RETURN_IF_ERROR(
      fields.take_string_or("graph.handoff", handoff, "memory"));
  SUPMR_ASSIGN_OR_RETURN(spec.graph_handoff, graph_handoff_from_name(handoff));
  SUPMR_RETURN_IF_ERROR(
      fields.take_u64_or("graph.budget", spec.graph_budget, 0));
  SUPMR_RETURN_IF_ERROR(
      fields.take_u64_or("cluster.nodes", spec.cluster_nodes, 0));
  SUPMR_RETURN_IF_ERROR(
      fields.take_u64_or("cluster.link_bps", spec.cluster_link_bps, 0));
  SUPMR_RETURN_IF_ERROR(
      fields.take_u64_or("cluster.uplink_bps", spec.cluster_uplink_bps, 0));
  SUPMR_RETURN_IF_ERROR(
      fields.take_u64_or("cluster.disk_bps", spec.cluster_disk_bps, 0));
  SUPMR_RETURN_IF_ERROR(
      fields.take_u64_or("cluster.budget", spec.cluster_budget, 0));
  SUPMR_RETURN_IF_ERROR(fields.check_empty());

  if (spec.app != "wordcount" && spec.app != "xwordcount" &&
      spec.app != "sort" && spec.app != "grep" && spec.app != "histogram" &&
      spec.app != "index" && spec.app != "paircount" &&
      spec.app != "doctermcount" && !spec.is_graph()) {
    return Status::InvalidArgument("replay spec: unknown app " + spec.app);
  }
  if (spec.container == ContainerMode::kCombining &&
      !app_has_combiner(spec.app)) {
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
  if (spec.is_cluster() && spec.is_graph()) {
    return Status::InvalidArgument(
        "replay spec: cluster cells run single-round apps, not graphs");
  }
  if (!spec.is_cluster() &&
      (spec.cluster_link_bps != 0 || spec.cluster_uplink_bps != 0 ||
       spec.cluster_disk_bps != 0 || spec.cluster_budget != 0)) {
    return Status::InvalidArgument(
        "replay spec: cluster bandwidth/budget knobs require cluster.nodes");
  }
  return spec;
}

}  // namespace supmr::core
