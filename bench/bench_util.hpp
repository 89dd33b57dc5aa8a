// Shared helpers for the table/figure reproduction binaries.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/phase_timer.hpp"
#include "obs/output_files.hpp"
#include "perfmodel/sim_job.hpp"

namespace supmr::bench {

inline void print_banner(const char* experiment, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

inline void print_row(const std::string& label, const PhaseBreakdown& p) {
  std::printf("%s\n", p.to_table_row(label).c_str());
}

inline void print_trace(const char* title, const TimeSeries& trace) {
  std::printf("\n--- %s ---\n%s", title,
              trace.to_ascii_chart(100, 18).c_str());
}

// Writes the trace CSV next to the binary for external plotting.
inline void dump_csv(const std::string& name, const TimeSeries& trace) {
  const std::string path = name + ".csv";
  trace.write_csv(path);
  std::printf("trace csv written to %s\n", path.c_str());
}

// Structured bench results. The CSV dumps above feed external plotting; the
// perf *trajectory* lives in-repo as committed BENCH_<name>.json files at the
// repo root — one flat array of metric rows so a later session (or CI) can
// diff numbers across PRs without parsing bench stdout:
//   {"bench": "ingest", "metrics": [
//     {"name": "ingest_mmap", "value": 8123.4, "unit": "MB/s",
//      "note": "borrowed views, 1MB chunks"}, ...]}
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  void metric(std::string name, double value, std::string unit,
              std::string note = "") {
    rows_.push_back({std::move(name), value, std::move(unit),
                     std::move(note)});
  }

  std::string to_json() const {
    JsonWriter w;
    w.begin_object();
    w.kv("bench", bench_);
    w.key("metrics");
    w.begin_array();
    for (const Row& r : rows_) {
      w.begin_object();
      w.kv("name", r.name);
      w.kv("value", r.value);
      w.kv("unit", r.unit);
      if (!r.note.empty()) w.kv("note", r.note);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
  }

  // Writes the document (with trailing newline) to `path`; returns false on
  // I/O failure. Benches print the destination so runs are self-describing.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const std::string doc = to_json() + "\n";
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    std::fclose(f);
    if (ok) std::printf("bench json written to %s\n", path.c_str());
    return ok;
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::string bench_;
  std::vector<Row> rows_;
};

// Reads the shared observability flags (--metrics-json=PATH,
// --trace-out=PATH) so every bench binary exposes the same knobs as the CLI;
// the bench writes the files once, after its run. Unrecognized arguments are
// ignored — benches keep their own positional conventions.
inline obs::OutputFiles obs_flags(int argc, char** argv) {
  obs::OutputFiles files;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--metrics-json=", 15) == 0) {
      files.metrics_file = arg + 15;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      files.trace_file = arg + 12;
    }
  }
  return files;
}

}  // namespace supmr::bench
