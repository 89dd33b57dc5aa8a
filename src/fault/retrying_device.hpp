// RetryingDevice: the one seam that retries a read.
//
// Wraps any storage::Device and re-issues failed positional reads under a
// RetryPolicy: exponential seeded-jitter backoff between attempts, a
// per-read wall-clock deadline, and fail-fast for non-retryable errors.
// Ingest chunk reads and record boundary probes (SingleDeviceSource::plan,
// adaptive extent_at) all go through the Device seam, so stacking this
// wrapper gives every one of them transient-fault survival without
// touching any reader (ARCHITECTURE §2). The ingest pipeline reads each
// chunk once, so policy.max_attempts is the total number of reads a failing
// chunk gets. The budgeted word count's spill runs
// (containers/run_set.hpp) do not retry: they are the runtime's own
// scratch, read back with stdio.
//
// A read's backoff sleeps cannot be cut short: a job torn down while its
// producer sits in a read here waits out that read's budget, at most
// max_attempts x backoff_max_s or read_deadline_s.
//
// Thread-safe like every Device: concurrent read_at calls each run their
// own RetrySession (per-call jitter stream from an atomic op counter), so
// readers back off decorrelated.
//
// Observability: storage.retries / storage.retry_exhausted /
// storage.read_deadline_expired counters, the storage.backoff_wait_us
// histogram, and a "fault" trace instant per retry.
#pragma once

#include <atomic>
#include <memory>

#include "fault/retry_policy.hpp"
#include "storage/device.hpp"

namespace supmr::fault {

class RetryingDevice final : public storage::Device {
 public:
  RetryingDevice(std::shared_ptr<const storage::Device> base,
                 RetryPolicy policy)
      : base_(std::move(base)), policy_(policy) {}

  // Non-owning wrap (stack-allocated bases in tests); `base` must outlive
  // this device.
  RetryingDevice(const storage::Device* base, RetryPolicy policy)
      : RetryingDevice(std::shared_ptr<const storage::Device>(
                           base, [](const storage::Device*) {}),
                       policy) {}

  StatusOr<std::size_t> read_at(std::uint64_t offset,
                                std::span<char> out) const override;

  std::uint64_t size() const override { return base_->size(); }
  std::string_view name() const override { return base_->name(); }
  storage::DeviceModel model() const override { return base_->model(); }

  const RetryPolicy& policy() const { return policy_; }

  // Retries issued (attempts beyond each read's first).
  std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  // Reads that failed even after the policy was exhausted.
  std::uint64_t exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }
  // Reads that gave up because the per-read deadline expired.
  std::uint64_t deadline_expired() const {
    return deadline_expired_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const storage::Device> base_;
  RetryPolicy policy_;
  mutable std::atomic<std::uint64_t> ops_{0};  // jitter stream ids
  mutable std::atomic<std::uint64_t> retries_{0};
  mutable std::atomic<std::uint64_t> exhausted_{0};
  mutable std::atomic<std::uint64_t> deadline_expired_{0};
};

}  // namespace supmr::fault
