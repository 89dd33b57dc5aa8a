#include "runtime/serve_spec.hpp"

namespace supmr::runtime {
namespace {

Status serve_error(const std::string& what) {
  return Status::InvalidArgument("serve spec: " + what);
}

// Reads the member `key` of a serve-spec object into `out`.
template <typename T>
Status read_field(const JsonValue& value, const std::string& key, T& out) {
  StatusOr<T> parsed = value.as<T>();
  if (!parsed.ok()) return serve_error(key + ": " + parsed.status().message());
  out = std::move(*parsed);
  return Status::Ok();
}

StatusOr<ServeJobSpec> parse_job(const JsonValue& doc) {
  if (doc.type() != JsonValue::Type::kObject) {
    return serve_error("each job must be an object");
  }
  ServeJobSpec job;
  bool has_spec = false;
  for (const auto& [key, value] : doc.members()) {
    if (key == "spec") {
      SUPMR_ASSIGN_OR_RETURN(job.spec, core::ReplaySpec::from_json(value));
      has_spec = true;
      continue;
    }
    SUPMR_RETURN_IF_ERROR(
        key == "name"           ? read_field(value, key, job.name)
        : key == "priority"     ? read_field(value, key, job.priority)
        : key == "threads"      ? read_field(value, key, job.threads)
        : key == "memory_bytes" ? read_field(value, key, job.memory_bytes)
        : key == "repeat"
            ? read_field(value, key, job.repeat)
            : serve_error("unknown job key \"" + key + "\""));
  }
  if (!has_spec) return serve_error("job missing \"spec\"");
  if (job.repeat == 0) return serve_error("job repeat must be >= 1");
  return job;
}

}  // namespace

StatusOr<ServeSpec> parse_serve_spec(std::string_view text) {
  StatusOr<JsonValue> doc = parse_json(text);
  if (!doc.ok()) return serve_error(doc.status().message());
  if (doc->type() != JsonValue::Type::kObject) {
    return serve_error("expected an object");
  }
  ServeSpec spec;
  for (const auto& [key, value] : doc->members()) {
    if (key == "jobs") {
      if (value.type() != JsonValue::Type::kArray) {
        return serve_error("jobs must be an array");
      }
      for (const JsonValue& item : value.items()) {
        SUPMR_ASSIGN_OR_RETURN(ServeJobSpec job, parse_job(item));
        spec.jobs.push_back(std::move(job));
      }
      continue;
    }
    SUPMR_RETURN_IF_ERROR(
        key == "pool_threads" ? read_field(value, key, spec.pool_threads)
        : key == "memory_budget_bytes"
            ? read_field(value, key, spec.memory_budget_bytes)
        : key == "max_queued" ? read_field(value, key, spec.max_queued)
                              : serve_error("unknown key \"" + key + "\""));
  }
  if (spec.jobs.empty()) return serve_error("no jobs");
  // serve starts the pool and then one client thread per job instance.
  if (spec.pool_threads > core::kMaxThreads) {
    return serve_error("pool_threads must be at most " +
                       std::to_string(core::kMaxThreads) + ", got " +
                       std::to_string(spec.pool_threads));
  }
  std::uint64_t instances = 0;
  for (const ServeJobSpec& job : spec.jobs) {
    if (job.repeat > core::kMaxThreads - instances) {
      return serve_error("the jobs' repeat counts sum to more than " +
                         std::to_string(core::kMaxThreads));
    }
    instances += job.repeat;
  }
  return spec;
}

}  // namespace supmr::runtime
