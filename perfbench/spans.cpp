#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <tuple>

#include "common/json.hpp"

namespace supmr::perfbench {

namespace sn = span_name;

int SpanLog::thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

ScopedSpan::~ScopedSpan() {
  Span s;
  s.name = name_;
  s.start = start_;
  s.end = log_.now();
  s.thread = SpanLog::thread_id();
  s.job = ctx_.job;
  s.stage = ctx_.stage;
  s.node = ctx_.node;
  s.round = round_;
  log_.add(std::move(s));
}

namespace {

using Context = std::tuple<int, int, int>;  // job, stage, node

Context context_of(const Span& s) { return {s.job, s.stage, s.node}; }

Span derived(const char* name, double start, double end, const Span& like) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.thread = like.thread;
  s.job = like.job;
  s.stage = like.stage;
  s.node = like.node;
  return s;
}

// Waves and stalls of one job context.
void derive_context(const std::vector<Span>& spans,
                    const std::vector<std::size_t>& members,
                    std::vector<Span>& out) {
  struct Round {
    const Span* prepare = nullptr;
    double last_task_end = 0.0;
    bool has_task = false;
  };
  std::map<int, Round> rounds;
  const Span* window_start = nullptr;  // the plan, else init
  const Span* reduce = nullptr;
  for (std::size_t i : members) {
    const Span& s = spans[i];
    if (s.name == sn::kPrepare) rounds[s.round].prepare = &s;
    if (s.name == sn::kPlan ||
        (s.name == sn::kInit && window_start == nullptr)) {
      window_start = &s;
    }
    if (s.name == sn::kReduce) reduce = &s;
  }
  for (std::size_t i : members) {
    const Span& s = spans[i];
    if (s.name != sn::kMapTask) continue;
    auto it = rounds.find(s.round);
    if (it == rounds.end()) continue;
    it->second.last_task_end = std::max(it->second.last_task_end, s.end);
    it->second.has_task = true;
  }

  std::vector<std::pair<double, double>> busy;  // prepare + wave intervals
  for (const auto& [round, r] : rounds) {
    if (r.prepare == nullptr) continue;
    busy.emplace_back(r.prepare->start, r.prepare->end);
    if (!r.has_task) continue;
    Span wave = derived(sn::kWave, r.prepare->end, r.last_task_end, *r.prepare);
    wave.round = round;
    busy.emplace_back(wave.start, wave.end);
    out.push_back(std::move(wave));
  }

  if (window_start == nullptr || reduce == nullptr || rounds.empty()) return;
  std::sort(busy.begin(), busy.end());
  double cursor = window_start->end;
  const auto stall = [&](double from, double to) {
    if (to > from) out.push_back(derived(sn::kStall, from, to, *reduce));
  };
  for (const auto& [lo, hi] : busy) {
    stall(cursor, std::min(lo, reduce->start));
    cursor = std::max(cursor, hi);
  }
  stall(cursor, reduce->start);
}

// slice / nodes / shuffle / per-node spans of one cluster.run root.
void derive_cluster(const std::vector<Span>& spans, const Span& root,
                    std::vector<Span>& out) {
  double first_init = root.end;
  double last_serialize = root.start;
  std::map<int, int> node_thread;  // node -> its coordinator thread
  for (const Span& s : spans) {
    if (s.job != root.job || s.node < 0) continue;
    if (s.name == sn::kInit) {
      first_init = std::min(first_init, s.start);
      node_thread[s.node] = s.thread;
    }
    if (s.name == sn::kSerialize) {
      last_serialize = std::max(last_serialize, s.end);
    }
  }
  if (node_thread.empty()) return;
  out.push_back(derived(sn::kClusterSlice, root.start, first_init, root));
  out.push_back(derived(sn::kClusterNodes, first_init, last_serialize, root));
  out.push_back(derived(sn::kClusterShuffle, last_serialize, root.end, root));
  for (const auto& [node, thread] : node_thread) {
    double lo = root.end;
    double hi = root.start;
    for (const Span& s : spans) {
      if (s.job != root.job || s.node != node || s.thread != thread) continue;
      lo = std::min(lo, s.start);
      hi = std::max(hi, s.end);
    }
    Span span = derived(sn::kClusterNode, lo, hi, root);
    span.node = node;
    span.thread = thread;
    out.push_back(std::move(span));
  }
}

bool is_root_name(const std::string& name) {
  return name == sn::kJob || name == sn::kGraphRun || name == sn::kClusterRun;
}

}  // namespace

void add_derived_spans(std::vector<Span>& spans) {
  std::map<Context, std::vector<std::size_t>> contexts;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    contexts[context_of(spans[i])].push_back(i);
  }
  std::vector<Span> out;
  for (const auto& [context, members] : contexts) {
    derive_context(spans, members, out);
  }
  spans.insert(spans.end(), out.begin(), out.end());
  out.clear();
  for (const Span& s : spans) {
    if (s.name == sn::kClusterRun) derive_cluster(spans, s, out);
  }
  spans.insert(spans.end(), out.begin(), out.end());
}

void link_parents(std::vector<Span>& spans) {
  std::map<int, std::vector<std::size_t>> jobs;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    jobs[spans[i].job].push_back(i);
  }
  for (const auto& [job, members] : jobs) {
    int root = -1;
    std::map<int, int> stage_span;
    std::map<int, int> node_span;
    std::map<Context, std::map<int, int>> waves;  // context -> round -> span
    for (std::size_t i : members) {
      const Span& s = spans[i];
      if (is_root_name(s.name) && root < 0) root = static_cast<int>(i);
      if (s.name == sn::kStage) stage_span[s.stage] = static_cast<int>(i);
      if (s.name == sn::kClusterNode) node_span[s.node] = static_cast<int>(i);
      if (s.name == sn::kWave) {
        waves[context_of(s)][s.round] = static_cast<int>(i);
      }
    }
    for (std::size_t i : members) {
      Span& s = spans[i];
      s.parent = -1;
      // Innermost containing span on the same thread; ties between equal
      // intervals go to the earlier span so no two spans parent each other.
      double best = -1.0;
      for (std::size_t p : members) {
        const Span& c = spans[p];
        if (p == i || c.thread != s.thread) continue;
        if (c.start > s.start || c.end < s.end) continue;
        if (c.duration() == s.duration() && p > i) continue;
        if (best < 0.0 || c.duration() < best) {
          best = c.duration();
          s.parent = static_cast<int>(p);
        }
      }
      if (s.parent >= 0 || static_cast<int>(i) == root) continue;
      if (s.name == sn::kMapTask) {
        auto ctx = waves.find(context_of(s));
        if (ctx != waves.end()) {
          auto wave = ctx->second.find(s.round);
          if (wave != ctx->second.end()) {
            s.parent = wave->second;
            continue;
          }
        }
      }
      const auto context_span = [&](const std::map<int, int>& spans_by_id,
                                    int id) {
        auto it = spans_by_id.find(id);
        return it == spans_by_id.end() || it->second == static_cast<int>(i)
                   ? -1
                   : it->second;
      };
      const int stage = context_span(stage_span, s.stage);
      const int node = context_span(node_span, s.node);
      s.parent = stage >= 0 ? stage : node >= 0 ? node : root;
    }
  }
}

double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double sum = 0.0;
  double cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      sum += b - a;
      cursor = b;
    }
  }
  return sum;
}

double self_time(const std::vector<Span>& spans, std::size_t index) {
  const Span& s = spans[index];
  std::vector<std::pair<double, double>> children;
  for (const Span& c : spans) {
    if (c.parent == static_cast<int>(index) && c.thread == s.thread) {
      children.emplace_back(c.start, c.end);
    }
  }
  return s.duration() - covered(std::move(children), s.start, s.end);
}

double total(const std::vector<Span>& spans, int job,
             const std::string& name) {
  double sum = 0.0;
  for (const Span& s : spans) {
    if (s.job == job && s.name == name) sum += s.duration();
  }
  return sum;
}

double wave_idle_frac(const std::vector<Span>& spans, int job,
                      std::size_t width) {
  const double waves = total(spans, job, sn::kWave);
  if (waves <= 0.0 || width == 0) return 0.0;
  return 1.0 - total(spans, job, sn::kMapTask) /
                   (static_cast<double>(width) * waves);
}

double unattributed(const std::vector<Span>& spans, int job) {
  double sum = 0.0;
  int critical_node = -1;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.job != job) continue;
    if (s.name == sn::kJob || s.name == sn::kStage) sum += self_time(spans, i);
    if (s.name == sn::kClusterNode &&
        (critical_node < 0 || s.end > spans[critical_node].end)) {
      critical_node = static_cast<int>(i);
    }
  }
  if (critical_node >= 0) sum += self_time(spans, critical_node);
  return sum;
}

std::string to_chrome_trace(const std::vector<Span>& spans,
                            const std::string& workload) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return spans[a].start < spans[b].start;
  });
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  w.begin_object();
  w.kv("name", "process_name");
  w.kv("ph", "M");
  w.kv("pid", 1);
  w.key("args");
  w.begin_object();
  w.kv("name", "perfbench " + workload);
  w.end_object();
  w.end_object();
  for (std::size_t i : order) {
    const Span& s = spans[i];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("cat", s.name.substr(0, s.name.find('.')));
    w.kv("ph", "X");
    w.kv("pid", 1);
    w.kv("tid", s.thread);
    w.kv("ts", s.start * 1e6);
    w.kv("dur", s.duration() * 1e6);
    w.key("args");
    w.begin_object();
    w.kv("workload", workload);
    w.kv("span", static_cast<std::int64_t>(i));
    w.kv("parent", s.parent);
    w.kv("job", s.job);
    w.kv("stage", s.stage);
    w.kv("node", s.node);
    w.kv("round", s.round);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  return w.str();
}

}  // namespace supmr::perfbench
