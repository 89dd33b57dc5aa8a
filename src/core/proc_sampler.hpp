// collectl-equivalent CPU utilization sampler for real (wall-clock) runs.
//
// Samples /proc/stat on a background thread at a fixed interval and derives
// user/sys/iowait percentages per interval — the same channels the paper's
// figures plot. Used by examples and real-mode benches; simulated runs get
// their traces from sim::trace_utilization instead.
#pragma once

#include <atomic>
#include <thread>

#include "common/timeseries.hpp"

namespace supmr::core {

class ProcStatSampler {
 public:
  explicit ProcStatSampler(double interval_s = 0.1);
  ~ProcStatSampler();

  ProcStatSampler(const ProcStatSampler&) = delete;
  ProcStatSampler& operator=(const ProcStatSampler&) = delete;

  // Lifecycle contract: start/stop/dtor must be driven from one controlling
  // thread. start() is idempotent while running, and a start() after stop()
  // begins a new trace; stop() without start() (or called twice) is a no-op
  // that returns the trace collected so far; destruction while running
  // stops and joins the sampler.
  void start();
  // Stops sampling and returns the trace (channels: user, sys, iowait; t in
  // seconds since start()).
  TimeSeries stop();

  static bool available();  // /proc/stat readable?

 private:
  struct CpuTimes {
    unsigned long long user = 0, nice = 0, sys = 0, idle = 0, iowait = 0,
                       irq = 0, softirq = 0, steal = 0;
    bool ok = false;
  };
  static CpuTimes read_proc_stat();
  void loop();

  double interval_s_;
  std::atomic<bool> running_{false};
  std::thread thread_;
  TimeSeries series_;
};

}  // namespace supmr::core
