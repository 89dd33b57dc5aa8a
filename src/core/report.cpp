#include "core/report.hpp"

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace supmr::core {

namespace {

void write_phases(JsonWriter& w, const PhaseBreakdown& p) {
  w.begin_object();
  w.kv("total_s", p.total_s);
  if (p.has_combined_readmap) {
    w.kv("readmap_s", p.readmap_s);
    w.kv("read_component_s", p.read_s);
    w.kv("map_component_s", p.map_s);
  } else {
    w.kv("read_s", p.read_s);
    w.kv("map_s", p.map_s);
  }
  w.kv("reduce_s", p.reduce_s);
  w.kv("merge_s", p.merge_s);
  w.kv("setup_s", p.setup_s);
  w.kv("cleanup_s", p.cleanup_s);
  w.kv("input_bytes", p.input_bytes);
  // num_chunks is the plan's real extent count in every mode; `chunked`
  // carries the presentation (the original runtime reads all chunks up
  // front). Keeping both makes the phases block self-consistent with the
  // top-level "chunks" field instead of zeroing one to imply the other.
  w.kv("num_chunks", p.num_chunks);
  w.kv("chunked", p.chunked);
  w.kv("map_rounds", p.map_rounds);
  w.kv("merge_rounds", p.merge_rounds);
  w.end_object();
}

}  // namespace

std::string phases_to_json(const PhaseBreakdown& phases) {
  JsonWriter w;
  write_phases(w, phases);
  return w.str();
}

std::string job_result_to_json(const JobResult& result) {
  JsonWriter w;
  w.begin_object();
  w.key("phases");
  write_phases(w, result.phases);
  w.kv("result_count", result.result_count);
  w.kv("map_rounds", result.map_rounds);
  w.kv("chunks", result.chunks);
  // Degrade-mode accounting (docs/fault-tolerance.md): a degraded run
  // completed but skipped poisoned chunks, so its output covers less than
  // the full input.
  w.kv("chunks_skipped", result.chunks_skipped);
  w.kv("bytes_skipped", result.bytes_skipped);
  w.kv("degraded", result.degraded());

  w.key("pipeline");
  w.begin_object();
  w.kv("total_s", result.pipeline.total_s);
  w.kv("ingest_busy_s", result.pipeline.ingest_busy_s);
  w.kv("process_busy_s", result.pipeline.process_busy_s);
  w.kv("consumer_wait_s", result.pipeline.consumer_wait_s);
  w.kv("total_bytes", result.pipeline.total_bytes);
  w.kv("chunks_skipped", result.pipeline.chunks_skipped);
  w.kv("bytes_skipped", result.pipeline.bytes_skipped);
  w.key("chunks");
  w.begin_array();
  for (const auto& c : result.pipeline.chunks) {
    w.begin_object();
    w.kv("index", c.index);
    w.kv("bytes", c.bytes);
    w.kv("ingest_s", c.ingest_s);
    w.kv("wait_s", c.wait_s);
    w.kv("process_s", c.process_s);
    w.kv("skipped", c.skipped);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("merge_rounds");
  w.begin_array();
  for (const auto& r : result.merge_stats.rounds) {
    w.begin_object();
    w.kv("active_workers", std::uint64_t{r.active_workers});
    w.kv("items_moved", r.items_moved);
    w.kv("wall_s", r.wall_s);
    w.end_object();
  }
  w.end_array();

  // The hash container's fold accounting (docs/containers.md); all zero
  // for apps without one.
  w.key("combine");
  w.begin_object();
  w.kv("emits", result.combine.emits);
  w.kv("keys_folded", result.combine.keys_folded);
  w.kv("bytes_emitted", result.combine.bytes_emitted);
  w.kv("bytes_into_merge", result.combine.bytes_into_merge);
  w.kv("table_bytes", result.combine.table_bytes);
  w.end_object();

  w.key("metrics");
  obs::write_metrics(w, result.metrics);
  w.end_object();
  return w.str();
}

std::string status_to_json(const Status& status) {
  JsonWriter w;
  w.begin_object();
  w.kv("ok", status.ok());
  w.kv("code", std::string(status_code_name(status.code())));
  w.kv("message", status.message());
  w.end_object();
  return w.str();
}

std::string timeseries_to_json(const TimeSeries& trace) {
  JsonWriter w;
  w.begin_object();
  w.key("t");
  w.begin_array();
  for (std::size_t i = 0; i < trace.samples(); ++i) w.value(trace.time(i));
  w.end_array();
  for (std::size_t c = 0; c < trace.channels(); ++c) {
    w.key(trace.channel_name(c));
    w.begin_array();
    for (std::size_t i = 0; i < trace.samples(); ++i)
      w.value(trace.value(i, c));
    w.end_array();
  }
  w.end_object();
  return w.str();
}

}  // namespace supmr::core
