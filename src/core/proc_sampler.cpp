#include "core/proc_sampler.hpp"

#include <chrono>
#include <cstdio>

namespace supmr::core {

namespace {

TimeSeries empty_trace() { return TimeSeries({"user", "sys", "iowait"}); }

}  // namespace

ProcStatSampler::ProcStatSampler(double interval_s)
    : interval_s_(interval_s), series_(empty_trace()) {}

ProcStatSampler::~ProcStatSampler() {
  running_.store(false);
  // Join unconditionally on joinable: gating the join on running_ (as this
  // originally did) leaks the thread when stop() raced the flag, and a
  // joinable std::thread at destruction is std::terminate.
  if (thread_.joinable()) thread_.join();
}

bool ProcStatSampler::available() { return read_proc_stat().ok; }

ProcStatSampler::CpuTimes ProcStatSampler::read_proc_stat() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  t.ok = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                     &t.user, &t.nice, &t.sys, &t.idle, &t.iowait, &t.irq,
                     &t.softirq, &t.steal) >= 5;
  std::fclose(f);
  return t;
}

void ProcStatSampler::start() {
  // Idempotent: a second start() while running would assign over a joinable
  // std::thread, which is std::terminate. (Restart after stop() is fine —
  // stop() leaves thread_ joined.)
  if (running_.exchange(true)) return;
  // A restart begins a new trace: loop() times samples from its own start,
  // so appending them to the old series would send t backwards.
  series_ = empty_trace();
  thread_ = std::thread([this] { loop(); });
}

TimeSeries ProcStatSampler::stop() {
  running_.store(false);
  if (thread_.joinable()) thread_.join();
  return series_;
}

void ProcStatSampler::loop() {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  CpuTimes prev = read_proc_stat();
  while (running_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s_));
    const CpuTimes cur = read_proc_stat();
    if (!cur.ok || !prev.ok) continue;
    const auto delta = [](unsigned long long a, unsigned long long b) {
      return a >= b ? double(a - b) : 0.0;
    };
    const double user = delta(cur.user, prev.user) + delta(cur.nice, prev.nice);
    const double sys = delta(cur.sys, prev.sys) + delta(cur.irq, prev.irq) +
                       delta(cur.softirq, prev.softirq);
    const double idle = delta(cur.idle, prev.idle);
    const double iowait = delta(cur.iowait, prev.iowait);
    const double total = user + sys + idle + iowait +
                         delta(cur.steal, prev.steal);
    if (total > 0.0) {
      const double t =
          std::chrono::duration<double>(clock::now() - t0).count();
      series_.append(t, {user / total * 100.0, sys / total * 100.0,
                         iowait / total * 100.0});
    }
    prev = cur;
  }
}

}  // namespace supmr::core
