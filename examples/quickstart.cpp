// Quickstart: word count with the SupMR runtime in ~40 lines of user code.
//
//   1. wrap your input in a storage::Device,
//   2. pick a chunking strategy (SingleDeviceSource + chunk size),
//   3. submit the job to a runtime::JobManager and wait on the JobHandle.
//
// The JobManager (docs/runtime.md) is the multi-tenant front door: it owns
// the worker thread pool and chunk buffers, so many jobs submitted to the
// same manager share them under leases. A single job, as here, works the
// same way — submit() returns a handle, handle.wait() returns the result.
//
// Build & run:  ./examples/quickstart [input.txt] [chunk-size]
//                                     [--io=read|mmap]
//                                     [--metrics-json=out.json]
//                                     [--trace-out=trace.json]
//                                     [--fault-plan=SPEC] [--retry-attempts=N]
//                                     [--retry-deadline=DUR] [--degrade]
// --io=mmap maps the input file and lends the pipeline zero-copy chunk views
// (docs/cli.md); combined with a fault plan the sources transparently fall
// back to copying reads, because a page fault cannot be retried.
// Every run prints how much the hash container's map-emit fold
// (docs/containers.md) shrank the data entering the merge.
// Without arguments it generates a 8 MB synthetic corpus. The fault flags
// demonstrate the fault-tolerance layer (docs/fault-tolerance.md): the input
// device is wrapped in a FaultDevice injecting the plan and a RetryingDevice
// that makes up to N attempts per read, and --degrade skips a chunk whose
// read still fails. On job failure a JSON error object goes to stdout and
// the exit code is 1.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/word_count.hpp"
#include "common/units.hpp"
#include "core/job.hpp"
#include "core/report.hpp"
#include "fault/fault_plan.hpp"
#include "fault/retrying_device.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "obs/output_files.hpp"
#include "runtime/job_manager.hpp"
#include "storage/fault_device.hpp"
#include "storage/file_device.hpp"
#include "storage/mem_device.hpp"
#include "storage/mmap_device.hpp"
#include "wload/text_corpus.hpp"

using namespace supmr;

int main(int argc, char** argv) {
  // Split --flags from positional arguments.
  core::JobConfig config;  // defaults: hardware-concurrency threads, p-way merge
  obs::OutputFiles obs_files;  // written once the job is done
  std::string fault_plan_spec;
  fault::RetryPolicy retry;  // the RetryingDevice's; default: fail fast
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--metrics-json=", 15) == 0) {
      obs_files.metrics_file = arg + 15;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      obs_files.trace_file = arg + 12;
    } else if (std::strncmp(arg, "--fault-plan=", 13) == 0) {
      fault_plan_spec = arg + 13;
    } else if (std::strncmp(arg, "--retry-attempts=", 17) == 0) {
      retry.max_attempts =
          static_cast<std::uint32_t>(std::strtoul(arg + 17, nullptr, 10));
    } else if (std::strncmp(arg, "--retry-deadline=", 17) == 0) {
      auto parsed = fault::parse_duration(arg + 17);
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --retry-deadline: %s\n",
                     parsed.status().to_string().c_str());
        return 2;
      }
      retry.read_deadline_s = *parsed;
    } else if (std::strcmp(arg, "--io=mmap") == 0) {
      config.io = core::IoMode::kMmap;
    } else if (std::strcmp(arg, "--io=read") == 0) {
      config.io = core::IoMode::kRead;
    } else if (std::strcmp(arg, "--degrade") == 0) {
      config.degrade = true;
    } else {
      args.emplace_back(arg);
    }
  }

  // 1. Input device: a real file if given, else a generated corpus.
  std::shared_ptr<const storage::Device> device;
  if (!args.empty()) {
    // --io=mmap gets a view-lending base device; a plain FileDevice would
    // silently pin every chunk to the copying path.
    Status open_status = Status::Ok();
    if (config.io == core::IoMode::kMmap) {
      auto mapped = storage::MmapDevice::open(args[0]);
      if (mapped.ok()) device = std::move(*mapped);
      else open_status = mapped.status();
    } else {
      auto file = storage::FileDevice::open(args[0]);
      if (file.ok()) device = std::move(*file);
      else open_status = file.status();
    }
    if (!open_status.ok()) {
      std::fprintf(stderr, "cannot open %s: %s\n", args[0].c_str(),
                   open_status.to_string().c_str());
      return 1;
    }
  } else {
    wload::TextCorpusConfig cfg;
    cfg.total_bytes = 8 * kMB;
    device = std::make_shared<storage::MemDevice>(wload::generate_text(cfg),
                                                  "generated-corpus");
  }

  // Optional fault layer: FaultDevice injects the plan underneath,
  // RetryingDevice absorbs transient faults at the read seam, the one place
  // a read is retried (the pipeline reads each chunk once).
  if (!fault_plan_spec.empty()) {
    auto plan = fault::FaultPlan::parse(fault_plan_spec);
    if (!plan.ok()) {
      std::fprintf(stderr, "bad --fault-plan: %s\n",
                   plan.status().to_string().c_str());
      return 2;
    }
    device = std::make_shared<storage::FaultDevice>(device, *plan);
  }
  if (retry.enabled()) {
    device = std::make_shared<fault::RetryingDevice>(device, retry);
  }

  // 2. Chunking strategy: inter-file chunks at line boundaries.
  std::uint64_t chunk_bytes = 1 * kMB;
  if (args.size() > 1) {
    if (auto parsed = parse_size(args[1])) chunk_bytes = *parsed;
  }
  ingest::SingleDeviceSource source(
      device, std::make_shared<ingest::LineFormat>(), chunk_bytes, config.io);

  // 3. Submit through the job manager and wait for the handle.
  apps::WordCountApp app;
  obs_files.begin();
  runtime::JobManager manager;
  runtime::JobRequest request;
  request.app = &app;
  request.source = &source;
  request.config = config;
  request.name = "quickstart-wordcount";
  auto handle = manager.submit(std::move(request));
  if (!handle.ok()) {
    std::fprintf(stderr, "submit failed: %s\n",
                 handle.status().to_string().c_str());
    return 1;
  }
  auto result = handle->wait();
  if (!result.ok()) {
    // stderr gets the human-readable line, stdout a machine-readable report.
    std::fprintf(stderr, "job failed: %s\n",
                 result.status().to_string().c_str());
    std::printf("%s\n", core::status_to_json(result.status()).c_str());
    return 1;
  }
  if (Status s = obs_files.write(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }

  std::printf("input: %s (%s), %llu ingest chunks, %llu map rounds\n",
              std::string(device->name()).c_str(),
              format_bytes(device->size()).c_str(),
              (unsigned long long)result->chunks,
              (unsigned long long)result->map_rounds);
  std::printf("phases: read+map %.3fs  reduce %.3fs  merge %.3fs  "
              "total %.3fs\n",
              result->phases.readmap_s, result->phases.reduce_s,
              result->phases.merge_s, result->phases.total_s);
  if (result->degraded()) {
    std::printf("DEGRADED: %llu chunks skipped (%llu bytes lost)\n",
                (unsigned long long)result->chunks_skipped,
                (unsigned long long)result->bytes_skipped);
  }
  std::printf("%llu distinct words, %llu words total\n",
              (unsigned long long)app.results().size(),
              (unsigned long long)app.words_mapped());
  std::printf("fold: %llu emits folded to %llu entries "
              "(%s emitted -> %s into merge, table %s)\n",
              (unsigned long long)result->combine.emits,
              (unsigned long long)(result->combine.emits -
                                   result->combine.keys_folded),
              format_bytes(result->combine.bytes_emitted).c_str(),
              format_bytes(result->combine.bytes_into_merge).c_str(),
              format_bytes(result->combine.table_bytes).c_str());
  std::printf("\n");

  // Top 10 words by count.
  auto top = app.results();
  std::partial_sort(top.begin(), top.begin() + std::min<std::size_t>(10, top.size()),
                    top.end(), [](const auto& a, const auto& b) {
                      return a.second > b.second;
                    });
  std::printf("top words:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(10, top.size()); ++i)
    std::printf("  %8llu  %s\n", (unsigned long long)top[i].second,
                top[i].first.c_str());
  if (!obs_files.metrics_file.empty())
    std::printf("metrics -> %s\n", obs_files.metrics_file.c_str());
  if (!obs_files.trace_file.empty())
    std::printf("trace -> %s\n", obs_files.trace_file.c_str());
  return 0;
}
