#include "obs/output_files.hpp"

#include <cstdio>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace supmr::obs {
namespace {

Status write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot create " + path);
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  if (std::fclose(f) != 0 || !ok) {
    return Status::IoError("short write to " + path);
  }
  SUPMR_LOG_INFO("wrote %s", path.c_str());
  return Status::Ok();
}

}  // namespace

void OutputFiles::begin() const {
  if (!trace_file.empty()) TraceRecorder::global().enable();
}

Status OutputFiles::write() const {
  if (!metrics_file.empty()) {
    SUPMR_RETURN_IF_ERROR(write_file(
        metrics_file,
        metrics_to_json(MetricsRegistry::global().snapshot())));
  }
  if (!trace_file.empty()) {
    SUPMR_RETURN_IF_ERROR(
        write_file(trace_file, TraceRecorder::global().to_json()));
  }
  return Status::Ok();
}

}  // namespace supmr::obs
