// Trace-event recorder emitting Chrome-trace (chrome://tracing / Perfetto)
// JSON.
//
// Threads append to private buffers — no shared state on the record path
// beyond one relaxed load of the enabled flag and one uncontended per-buffer
// mutex (contended only while a snapshot is being taken). Buffers are owned
// by the recorder and survive thread exit, so emission after a job can still
// see every thread's events; clear() empties buffers in place and never
// invalidates a thread's cached buffer pointer.
//
// Event model (the subset of the Trace Event Format the runtime needs):
//   'X' complete events — a span with ts + dur (what TraceScope emits),
//   'i' instant events  — a point-in-time marker,
// plus per-thread 'M' thread_name metadata synthesized at emission time.
// Names and categories must be string literals (or otherwise outlive the
// recorder): events store the pointers, not copies.
//
// Timebase: steady_clock nanoseconds since the recorder's construction,
// emitted as fractional microseconds (the format's unit).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace supmr::obs {

struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  char ph = 'X';              // 'X' or 'i'
  std::uint64_t ts_ns = 0;    // since recorder epoch
  std::uint64_t dur_ns = 0;   // 'X' only
  // Up to two numeric args, rendered into the event's "args" object.
  const char* arg1_name = nullptr;
  std::uint64_t arg1 = 0;
  const char* arg2_name = nullptr;
  std::uint64_t arg2 = 0;
};

class TraceRecorder {
 public:
  // `max_events_per_thread` bounds memory; past it events are dropped and
  // counted (dropped_events()).
  explicit TraceRecorder(std::size_t max_events_per_thread = 1 << 20);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // The process-wide recorder the SUPMR_TRACE_* macros use.
  static TraceRecorder& global();

  // Recording is off by default; everything below is a cheap no-op until
  // enable() (one relaxed load on the record path).
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Nanoseconds since the recorder epoch.
  std::uint64_t now_ns() const;

  // Appends to the calling thread's buffer (no-op when disabled).
  void record(const TraceEvent& event);

  // Convenience: an 'i' instant event stamped now.
  void instant(const char* cat, const char* name,
               const char* arg_name = nullptr, std::uint64_t arg = 0);

  // Names the calling thread in the emitted trace (thread_name metadata).
  void set_thread_name(std::string name);

  // {"traceEvents":[...],"displayTimeUnit":"ms"} — metadata first, then all
  // events sorted by timestamp. Safe to call while threads record (the
  // result is a consistent prefix per thread).
  std::string to_json() const;

  // Empties all buffers in place; thread buffer pointers stay valid.
  void clear();

  std::uint64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Buffer {
    std::mutex mu;
    std::uint32_t tid = 0;
    std::string thread_name;
    std::vector<TraceEvent> events;
  };

  Buffer* this_thread_buffer();

  const std::uint64_t id_;
  const std::size_t max_events_per_thread_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span: stamps construction time, emits one 'X' complete event on
// destruction. When the recorder is disabled at construction the scope is
// inert (no clock reads). Use set_arg()/set_arg2() for values only known
// mid-span (e.g. bytes read).
class TraceScope {
 public:
  TraceScope(const char* cat, const char* name,
             TraceRecorder& recorder = TraceRecorder::global())
      : recorder_(recorder), active_(recorder.enabled()) {
    if (!active_) return;
    event_.cat = cat;
    event_.name = name;
    event_.ts_ns = recorder.now_ns();
  }

  ~TraceScope() {
    if (!active_) return;
    event_.dur_ns = recorder_.now_ns() - event_.ts_ns;
    recorder_.record(event_);
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  void set_arg(const char* name, std::uint64_t value) {
    event_.arg1_name = name;
    event_.arg1 = value;
  }
  void set_arg2(const char* name, std::uint64_t value) {
    event_.arg2_name = name;
    event_.arg2 = value;
  }

 private:
  TraceRecorder& recorder_;
  const bool active_;
  TraceEvent event_;
};

}  // namespace supmr::obs
