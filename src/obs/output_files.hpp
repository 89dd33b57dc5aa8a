// The observability files a run writes (docs/observability.md): the metrics
// snapshot (--metrics-json) and the Chrome trace (--trace-out).
//
// The program that runs the jobs owns them (the CLI, the quickstart, a
// bench), not MapReduceJob: a run of many jobs (cluster nodes, k-means
// iterations) writes each file once, after the whole run, so the metrics
// file holds the run's own totals (cluster.* included).
#pragma once

#include <string>

#include "common/status.hpp"

namespace supmr::obs {

struct OutputFiles {
  std::string metrics_file;  // "" = no metrics file
  std::string trace_file;    // "" = no trace file

  // Before the run: turns the global trace recorder on if a trace is wanted.
  void begin() const;
  // After the run: writes the global metrics snapshot and the recorded
  // trace. IoError naming the first file that cannot be written.
  Status write() const;
};

}  // namespace supmr::obs
