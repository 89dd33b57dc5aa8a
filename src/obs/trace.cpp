#include "obs/trace.hpp"

#include <algorithm>

#include "common/json.hpp"

namespace supmr::obs {

namespace {

std::atomic<std::uint64_t> g_next_recorder_id{1};

struct TlsBufferCache {
  std::uint64_t recorder_id = 0;
  void* buffer = nullptr;
};
thread_local TlsBufferCache tls_buffer;

void write_event(JsonWriter& w, const TraceEvent& e, std::uint32_t tid) {
  w.begin_object();
  w.kv("name", e.name);
  w.kv("cat", e.cat);
  char ph[2] = {e.ph, '\0'};
  w.kv("ph", static_cast<const char*>(ph));
  w.kv("pid", std::uint64_t{1});
  w.kv("tid", std::uint64_t{tid});
  w.kv("ts", double(e.ts_ns) / 1000.0);
  if (e.ph == 'X') w.kv("dur", double(e.dur_ns) / 1000.0);
  if (e.ph == 'i') w.kv("s", "t");  // thread-scoped instant
  if (e.arg1_name != nullptr || e.arg2_name != nullptr) {
    w.key("args");
    w.begin_object();
    if (e.arg1_name != nullptr) w.kv(e.arg1_name, e.arg1);
    if (e.arg2_name != nullptr) w.kv(e.arg2_name, e.arg2);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

TraceRecorder::TraceRecorder(std::size_t max_events_per_thread)
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      max_events_per_thread_(max_events_per_thread),
      epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* recorder = new TraceRecorder();  // never destroyed
  return *recorder;
}

std::uint64_t TraceRecorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

TraceRecorder::Buffer* TraceRecorder::this_thread_buffer() {
  if (tls_buffer.recorder_id == id_)
    return static_cast<Buffer*>(tls_buffer.buffer);
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->tid = static_cast<std::uint32_t>(buffers_.size());
  tls_buffer.recorder_id = id_;
  tls_buffer.buffer = buffers_.back().get();
  return buffers_.back().get();
}

void TraceRecorder::record(const TraceEvent& event) {
  if (!enabled()) return;
  Buffer* buf = this_thread_buffer();
  std::lock_guard<std::mutex> lock(buf->mu);
  if (buf->events.size() >= max_events_per_thread_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf->events.push_back(event);
}

void TraceRecorder::instant(const char* cat, const char* name,
                            const char* arg_name, std::uint64_t arg) {
  if (!enabled()) return;
  TraceEvent e;
  e.cat = cat;
  e.name = name;
  e.ph = 'i';
  e.ts_ns = now_ns();
  e.arg1_name = arg_name;
  e.arg1 = arg;
  record(e);
}

void TraceRecorder::set_thread_name(std::string name) {
  Buffer* buf = this_thread_buffer();
  std::lock_guard<std::mutex> lock(buf->mu);
  buf->thread_name = std::move(name);
}

std::string TraceRecorder::to_json() const {
  // Snapshot buffer contents so sorting happens outside the locks.
  struct Named {
    std::uint32_t tid;
    std::string name;
  };
  std::vector<Named> names;
  std::vector<std::pair<std::uint32_t, TraceEvent>> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      if (!buf->thread_name.empty())
        names.push_back({buf->tid, buf->thread_name});
      for (const TraceEvent& e : buf->events) events.emplace_back(buf->tid, e);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.ts_ns < b.second.ts_ns;
                   });

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const auto& n : names) {
    w.begin_object();
    w.kv("name", "thread_name");
    w.kv("ph", "M");
    w.kv("pid", std::uint64_t{1});
    w.kv("tid", std::uint64_t{n.tid});
    w.key("args");
    w.begin_object();
    w.kv("name", n.name);
    w.end_object();
    w.end_object();
  }
  for (const auto& [tid, e] : events) write_event(w, e, tid);
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  return w.str();
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->events.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace supmr::obs
