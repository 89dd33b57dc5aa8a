// The `supmr serve --jobs <file.json>` workload description.
//
// A serve spec names the shared runtime's sizing (pool threads, memory
// budget, queue bound) and a list of jobs, each a lease request plus a full
// ReplaySpec (core/replay.hpp) describing the app, its seeded corpus, and
// the cell config — so a jobs file is self-contained: corpora regenerate
// deterministically, no external inputs. `repeat` submits the same job N
// times (workload mixes like "40 small greps" stay one line).
//
// Shape (docs/runtime.md has the full key table):
//   {
//     "pool_threads": 4,
//     "memory_budget_bytes": 268435456,
//     "max_queued": 64,
//     "jobs": [
//       {"name": "grep-small", "priority": 1, "threads": 2,
//        "memory_bytes": 8388608, "repeat": 3, "spec": { ...ReplaySpec... }}
//     ]
//   }
//
// The file is read with the strict parse_json (common/json.hpp): unknown
// keys, repeated keys, wrong value types and integers outside their field's
// range (priority is an int, the rest are sizes) are errors. Each job's
// parsed "spec" value goes to ReplaySpec::from_json(const JsonValue&).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "core/replay.hpp"

namespace supmr::runtime {

struct ServeJobSpec {
  std::string name;             // "" = auto job-<id>
  int priority = 0;
  std::size_t threads = 0;      // 0 = from spec.threads
  std::size_t memory_bytes = 0; // 0 = JobManager default
  std::size_t repeat = 1;
  core::ReplaySpec spec;
};

struct ServeSpec {
  std::size_t pool_threads = 0;         // 0 = hardware default
  std::size_t memory_budget_bytes = 0;  // 0 = JobManager default
  std::size_t max_queued = 0;           // 0 = JobManager default
  std::vector<ServeJobSpec> jobs;
};

StatusOr<ServeSpec> parse_serve_spec(std::string_view text);

}  // namespace supmr::runtime
