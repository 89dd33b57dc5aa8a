#include "fault/retrying_device.hpp"

#include <thread>

#include "obs/macros.hpp"

namespace supmr::fault {

StatusOr<std::size_t> RetryingDevice::read_at(std::uint64_t offset,
                                              std::span<char> out) const {
  RetrySession session(policy_,
                       ops_.fetch_add(1, std::memory_order_relaxed));
  while (true) {
    StatusOr<std::size_t> result = base_->read_at(offset, out);
    if (result.ok()) return result;

    const std::optional<double> wait = session.next_backoff(result.status());
    if (!wait.has_value()) {
      if (session.deadline_expired()) {
        deadline_expired_.fetch_add(1, std::memory_order_relaxed);
        SUPMR_COUNTER_ADD("storage.read_deadline_expired", 1);
      }
      if (session.failed_attempts() > 1 || session.deadline_expired()) {
        exhausted_.fetch_add(1, std::memory_order_relaxed);
        SUPMR_COUNTER_ADD("storage.retry_exhausted", 1);
        return session.annotate(result.status());
      }
      return result;  // fail-fast policy or non-retryable error: untouched
    }

    retries_.fetch_add(1, std::memory_order_relaxed);
    SUPMR_COUNTER_ADD("storage.retries", 1);
    SUPMR_HIST_OBSERVE("storage.backoff_wait_us", *wait * 1e6);
    SUPMR_TRACE_INSTANT_ARG("fault", "storage.retry", "attempt",
                            session.failed_attempts());
    std::this_thread::sleep_for(std::chrono::duration<double>(*wait));
  }
}

}  // namespace supmr::fault
