#include "apps/matrix_multiply.hpp"

#include <cassert>
#include <cmath>
#include <cstring>

namespace supmr::apps {

MatrixMultiplyApp::MatrixMultiplyApp(std::vector<double> a, std::size_t n)
    : a_(std::move(a)), n_(n) {
  assert(a_.size() == n_ * n_ && n_ > 0);
}

void MatrixMultiplyApp::init(std::size_t num_map_threads) {
  num_mappers_ = num_map_threads;
  container_.init(n_ * sizeof(double));
  frobenius_ = 0.0;
}

Status MatrixMultiplyApp::prepare_round(const ingest::IngestChunk& chunk) {
  const std::uint64_t rb = n_ * sizeof(double);
  const std::span<const char> bytes = chunk.bytes();
  if (bytes.size() % rb != 0) {
    return Status::InvalidArgument(
        "chunk is not a whole number of matrix columns");
  }
  const std::uint64_t cols = bytes.size() / rb;
  round_src_ = bytes.data();
  round_slot_ = container_.claim(cols);
  tasks_ = split_records(cols, map_slices(num_mappers_));
  return Status::Ok();
}

void MatrixMultiplyApp::map_task(std::size_t task, std::size_t thread_id) {
  (void)thread_id;
  const RecordSlice& t = tasks_[task];
  const std::uint64_t rb = n_ * sizeof(double);
  std::vector<double> b(n_), c(n_);
  for (std::uint64_t col = t.first; col < t.first + t.count; ++col) {
    std::memcpy(b.data(), round_src_ + col * rb, rb);
    // c = A * b, row-major A.
    for (std::size_t i = 0; i < n_; ++i) {
      double acc = 0.0;
      const double* row = a_.data() + i * n_;
      for (std::size_t k = 0; k < n_; ++k) acc += row[k] * b[k];
      c[i] = acc;
    }
    container_.write_record(
        round_slot_ + col,
        std::span<const char>(reinterpret_cast<const char*>(c.data()), rb));
  }
}

Status MatrixMultiplyApp::reduce(ThreadPool& pool,
                                 std::size_t num_partitions) {
  const std::uint64_t cols = container_.size();
  std::vector<double> partial(num_partitions, 0.0);
  std::vector<std::function<void(std::size_t)>> tasks;
  const std::uint64_t per = (cols + num_partitions - 1) / num_partitions;
  for (std::size_t p = 0; p < num_partitions; ++p) {
    const std::uint64_t first = p * per;
    if (first >= cols) break;
    const std::uint64_t last = std::min(first + per, cols);
    tasks.push_back([this, &partial, p, first, last](std::size_t) {
      double sum = 0.0;
      for (std::uint64_t j = first; j < last; ++j) {
        const double* col = column(j);
        for (std::size_t i = 0; i < n_; ++i) sum += col[i] * col[i];
      }
      partial[p] = sum;
    });
  }
  if (!pool.run_wave(tasks))
    return Status::Internal("reduce wave dropped: thread pool shut down");
  double total = 0.0;
  for (double s : partial) total += s;
  frobenius_ = std::sqrt(total);
  return Status::Ok();
}

Status MatrixMultiplyApp::merge(ThreadPool&, const core::MergePlan&,
                                merge::MergeStats* stats) {
  if (stats != nullptr) *stats = merge::MergeStats{};
  return Status::Ok();
}

std::string MatrixMultiplyApp::columns_to_records(
    const std::vector<double>& m, std::size_t n) {
  assert(m.size() == n * n);
  std::string out(n * n * sizeof(double), '\0');
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(out.data() + (j * n + i) * sizeof(double),
                  &m[i * n + j], sizeof(double));
    }
  }
  return out;
}

}  // namespace supmr::apps
