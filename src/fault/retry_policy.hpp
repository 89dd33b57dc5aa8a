// Retry policy: how a transient I/O failure is retried before it becomes
// permanent.
//
// The paper's pipeline assumes a flawless 384 MB/s RAID-0; a production
// scale-up deployment sees transient device hiccups (command timeouts,
// remote-block re-replication, loaded NFS servers) that are cheaper to
// absorb with a bounded re-read than with a whole-job restart — the same
// node-local-recovery argument the in-node combining literature makes
// (PAPERS.md: Lee et al., arXiv:1511.04861), applied at read granularity
// like OS4M's sub-task rescheduling (Fan et al., arXiv:1406.3901).
//
// RetryPolicy is pure data (copyable, defaults mean "no retries" so every
// existing call path keeps its fail-fast behaviour). RetrySession is the
// per-logical-operation state machine: it decides, after each failed
// attempt, whether to retry and how long to back off. Its one user is
// fault::RetryingDevice (retrying_device.hpp), the only seam that retries a
// read; the ingest pipeline reads each chunk once. Backoff grows
// exponentially and is jittered by a seeded xoshiro stream, so two readers
// that fail together do not re-hammer the device in lockstep and every run
// is replayable from the seed.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace supmr::fault {

struct RetryPolicy {
  // Total attempts for one logical read, including the first. 1 = fail
  // fast (the pre-fault-layer behaviour, and the default everywhere).
  std::uint32_t max_attempts = 1;
  // Wait before the first retry; each further retry multiplies by
  // backoff_mult, capped at backoff_max_s.
  double backoff_base_s = 0.001;
  double backoff_mult = 2.0;
  double backoff_max_s = 0.250;
  // Fraction of each backoff randomized away: the wait is uniform in
  // [b * (1 - jitter), b]. 0 = deterministic, 1 = full jitter.
  double jitter = 0.5;
  // Wall-clock budget for one logical read including all retries and
  // backoff waits. 0 = unlimited. When the budget would be exceeded the
  // session gives up even if attempts remain — this is what bounds how
  // long a permanently poisoned read can wedge a job.
  double read_deadline_s = 0.0;
  // Seed for the jitter stream; sessions derive per-operation streams so
  // concurrent readers stay decorrelated but replayable.
  std::uint64_t seed = 0x5eedfa17ULL;

  // True when the policy can change behaviour over fail-fast.
  bool enabled() const { return max_attempts > 1 || read_deadline_s > 0.0; }
};

// Which failures are worth retrying: device-level I/O errors and transient
// resource exhaustion. Everything else (bad arguments, corrupt internal
// state, unimplemented paths) fails immediately regardless of policy.
inline bool retryable(const Status& status) {
  return status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kResourceExhausted;
}

// Per-operation retry state: attempt counter, deadline clock, jitter RNG.
// Not thread-safe; create one per logical operation (its construction is two
// clock reads and a splitmix seeding — cheap enough for the error path).
class RetrySession {
 public:
  // `stream` decorrelates concurrent sessions under one policy (callers
  // pass a chunk index or a monotonic operation id).
  RetrySession(const RetryPolicy& policy, std::uint64_t stream)
      : policy_(policy),
        rng_(policy.seed ^ (stream * 0x9e3779b97f4a7c15ULL)),
        start_(std::chrono::steady_clock::now()) {}

  // Records one failed attempt. Returns the backoff wait (seconds) before
  // the next attempt, or nullopt when the operation must give up: the
  // failure is not retryable, attempts are exhausted, or waiting would
  // blow the read deadline.
  std::optional<double> next_backoff(const Status& failure) {
    ++failed_attempts_;
    if (!retryable(failure)) return std::nullopt;
    if (failed_attempts_ >= policy_.max_attempts) return std::nullopt;
    double wait = policy_.backoff_base_s;
    for (std::uint32_t i = 1; i < failed_attempts_; ++i) {
      wait *= policy_.backoff_mult;
      if (wait >= policy_.backoff_max_s) break;
    }
    wait = std::min(wait, policy_.backoff_max_s);
    if (policy_.jitter > 0.0) {
      const double floor = wait * (1.0 - std::min(policy_.jitter, 1.0));
      wait = floor + (wait - floor) * rng_.uniform_double();
    }
    if (policy_.read_deadline_s > 0.0 &&
        elapsed_s() + wait >= policy_.read_deadline_s) {
      deadline_expired_ = true;
      return std::nullopt;
    }
    return wait;
  }

  std::uint32_t failed_attempts() const { return failed_attempts_; }
  bool deadline_expired() const { return deadline_expired_; }

  double elapsed_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  // Final status annotation: what the retry layer adds to an error that
  // survived it ("... [fault: gave up after 4 attempts]").
  Status annotate(const Status& failure) const {
    const char* why =
        deadline_expired_ ? "read deadline exceeded" : "gave up after retries";
    return Status(failure.code(),
                  failure.message() + " [fault: " + why + ", " +
                      std::to_string(failed_attempts_) + " attempt(s)]");
  }

 private:
  RetryPolicy policy_;  // by value: a session must outlive any temporary
  Xoshiro256 rng_;
  std::chrono::steady_clock::time_point start_;
  std::uint32_t failed_attempts_ = 0;
  bool deadline_expired_ = false;
};

}  // namespace supmr::fault
