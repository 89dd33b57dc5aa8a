// Compile-out-able instrumentation macro layer.
//
// All runtime instrumentation goes through these macros so a build with
// -DSUPMR_OBS=OFF (which defines SUPMR_OBS_DISABLED) compiles every site to
// nothing — zero instructions, zero data — while the default build pays:
//   * counters/histograms: one relaxed atomic RMW on a thread-private cell
//     (the cell pointer is cached in a static thread_local per call site);
//   * trace scopes: one relaxed load of the enabled flag when tracing is
//     off; two clock reads + one buffered append when on.
//
// Metric and span names must be string literals.
//
//   SUPMR_COUNTER_ADD("ingest.bytes", n);
//   SUPMR_HIST_OBSERVE("ingest.read_us", micros);
//   SUPMR_GAUGE_SET("cluster.nodes", n);
//   SUPMR_TRACE_SCOPE("merge", "merge.pway");           // span = this block
//   SUPMR_TRACE_SCOPE_VAR(span, "ingest", "read_chunk");  // named handle
//   SUPMR_TRACE_SET_ARG(span, "bytes", chunk.size());
//   SUPMR_TRACE_INSTANT("spill", "spill.run");
//   SUPMR_TRACE_THREAD_NAME("pool.worker/" + std::to_string(i));
#pragma once

#if !defined(SUPMR_OBS_DISABLED)
#define SUPMR_OBS_ENABLED 1
#else
#define SUPMR_OBS_ENABLED 0
#endif

#if SUPMR_OBS_ENABLED

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#define SUPMR_OBS_CONCAT_INNER(a, b) a##b
#define SUPMR_OBS_CONCAT(a, b) SUPMR_OBS_CONCAT_INNER(a, b)

#define SUPMR_COUNTER_ADD(name, delta)                                     \
  do {                                                                     \
    static thread_local ::supmr::obs::CounterCell* supmr_obs_cell =        \
        ::supmr::obs::MetricsRegistry::global().counter_cell(name);        \
    supmr_obs_cell->add(static_cast<std::uint64_t>(delta));                \
  } while (0)

#define SUPMR_HIST_OBSERVE(name, value)                                    \
  do {                                                                     \
    static thread_local ::supmr::obs::HistogramCell* supmr_obs_cell =      \
        ::supmr::obs::MetricsRegistry::global().histogram_cell(name);      \
    supmr_obs_cell->observe(static_cast<std::uint64_t>(value));            \
  } while (0)

#define SUPMR_GAUGE_SET(name, value)                                       \
  do {                                                                     \
    static ::supmr::obs::GaugeCell* supmr_obs_cell =                       \
        ::supmr::obs::MetricsRegistry::global().gauge_cell(name);          \
    supmr_obs_cell->set(static_cast<std::int64_t>(value));                 \
  } while (0)

// Span covering the rest of the enclosing block.
#define SUPMR_TRACE_SCOPE(cat, name)                                       \
  ::supmr::obs::TraceScope SUPMR_OBS_CONCAT(supmr_trace_scope_, __LINE__)( \
      cat, name)

// Span with a caller-visible handle, for SUPMR_TRACE_SET_ARG.
#define SUPMR_TRACE_SCOPE_VAR(var, cat, name)                              \
  ::supmr::obs::TraceScope var((cat), (name))
#define SUPMR_TRACE_SET_ARG(var, key, value)                               \
  (var).set_arg((key), static_cast<std::uint64_t>(value))
#define SUPMR_TRACE_SET_ARG2(var, key, value)                              \
  (var).set_arg2((key), static_cast<std::uint64_t>(value))

#define SUPMR_TRACE_INSTANT(cat, name)                                     \
  ::supmr::obs::TraceRecorder::global().instant((cat), (name))
#define SUPMR_TRACE_INSTANT_ARG(cat, name, key, value)                     \
  ::supmr::obs::TraceRecorder::global().instant(                           \
      (cat), (name), (key), static_cast<std::uint64_t>(value))

#define SUPMR_TRACE_THREAD_NAME(name)                                      \
  do {                                                                     \
    if (::supmr::obs::TraceRecorder::global().enabled())                   \
      ::supmr::obs::TraceRecorder::global().set_thread_name(name);         \
  } while (0)

#else  // SUPMR_OBS_ENABLED

// Disabled build: every site vanishes. Arguments are intentionally not
// evaluated; instrumentation must not carry side effects.
#define SUPMR_COUNTER_ADD(name, delta) do {} while (0)
#define SUPMR_HIST_OBSERVE(name, value) do {} while (0)
#define SUPMR_GAUGE_SET(name, value) do {} while (0)
#define SUPMR_TRACE_SCOPE(cat, name) do {} while (0)
#define SUPMR_TRACE_SCOPE_VAR(var, cat, name) do {} while (0)
#define SUPMR_TRACE_SET_ARG(var, key, value) do {} while (0)
#define SUPMR_TRACE_SET_ARG2(var, key, value) do {} while (0)
#define SUPMR_TRACE_INSTANT(cat, name) do {} while (0)
#define SUPMR_TRACE_INSTANT_ARG(cat, name, key, value) do {} while (0)
#define SUPMR_TRACE_THREAD_NAME(name) do {} while (0)

#endif  // SUPMR_OBS_ENABLED
