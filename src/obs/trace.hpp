// Scoped-timer hierarchical tracing (the ORDO_SCOPE half of ordo::obs).
//
// Spans are recorded into a per-thread buffer: each thread owns a
// thread_local vector it alone appends to, so an active span costs one
// atomic flag load when tracing is off and two clock reads plus a
// push_back under the buffer's (uncontended outside export) mutex when it
// is on. The global registry of thread buffers is only locked on a thread's
// first span and when a snapshot is collected (export time), where each
// buffer's mutex is also taken so snapshots race-freely overlap appends.
//
// Instrumentation is placed at phase granularity (a reordering, a model
// evaluation, a corpus build) — never inside kernel inner loops — so the
// disabled cost is a branch per phase, not per nonzero. Compiling with
// ORDO_OBS=OFF removes even that: the ORDO_SCOPE macro expands to nothing.
//
// Export is Chrome trace_event JSON ("X" complete events), loadable in
// chrome://tracing or Perfetto. `ORDO_TRACE=out.json` (see obs.hpp) enables
// tracing and writes the file at finalize().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ordo::obs {

/// One completed span, in the process-wide trace_now_us() time base.
struct SpanEvent {
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t duration_us = 0;
  int thread_id = 0;  ///< dense id in registration order, not the OS tid
  int depth = 0;      ///< nesting depth within the thread at open time
};

/// Cheap check (one relaxed atomic load) used by every instrumentation site.
bool tracing_enabled();
void set_tracing_enabled(bool enabled);

/// Discards all recorded spans on every thread's buffer.
void clear_trace();

/// Snapshot of all spans recorded so far, merged across threads and sorted
/// by start time. Safe to call while other threads are still recording:
/// spans closed before the snapshot are included, spans closing during it
/// land on one side of their buffer's lock.
std::vector<SpanEvent> collect_trace();

/// Writes the collected spans as Chrome trace_event JSON. Events carry the
/// real pid, and so does a top-level "pid" key.
void write_chrome_trace(std::ostream& out);
void write_chrome_trace_file(const std::string& path);

/// RAII span. Construct with the hierarchical phase name ("reorder/rcm");
/// the span closes when the object leaves scope. No-op when tracing is off.
class Span {
 public:
  explicit Span(const char* name);
  explicit Span(std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(std::string name);
  bool active_ = false;
  std::string name_;
  std::int64_t start_us_ = 0;
  int depth_ = 0;
};

}  // namespace ordo::obs

// ORDO_SCOPE("phase/name"): records a span covering the rest of the
// enclosing block. Compiled out entirely when ORDO_OBS=OFF.
#if defined(ORDO_OBS_ENABLED)
#define ORDO_OBS_CONCAT_IMPL(a, b) a##b
#define ORDO_OBS_CONCAT(a, b) ORDO_OBS_CONCAT_IMPL(a, b)
#define ORDO_SCOPE(name) \
  ::ordo::obs::Span ORDO_OBS_CONCAT(ordo_scope_, __LINE__)(name)
#else
#define ORDO_SCOPE(name) ((void)0)
#endif
