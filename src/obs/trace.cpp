#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <ostream>

#include "core/thread_safety.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "sparse/types.hpp"

namespace ordo::obs {
namespace {

std::atomic<bool> g_tracing_enabled{false};

// Per-thread span buffer. The owning thread is the only appender, but a
// snapshot (collect_trace/clear_trace) may run concurrently from another
// thread, so the events vector is guarded by a per-buffer mutex — contended
// only at export time, and spans are phase-granular, so the uncontended
// lock per span close is noise. `depth` stays unguarded: only the owning
// thread ever touches it. Buffers deliberately leak at thread exit so spans
// from joined threads survive until export — the process-lifetime cost is
// bounded by span volume.
struct ThreadBuffer {
  Mutex mutex;  ///< guards `events` (owner appends, exporters read)
  std::vector<SpanEvent> events ORDO_GUARDED_BY(mutex);
  // ordo-analyze: allow(guard-coverage) depth is touched only by the owning
  // thread (span open/close nesting), never by exporters.
  int depth = 0;
  // ordo-analyze: allow(guard-coverage) thread_id is written once at
  // registration (before the buffer is published) and read-only after.
  int thread_id = 0;
};

// Registry mutex and buffer list live in one (deliberately leaked) struct:
// finalize() runs from std::atexit handlers that may outlive ordinarily-
// destroyed function statics, and the guarded_by relation needs both in
// one place.
struct BufferRegistry {
  Mutex mutex;
  std::vector<ThreadBuffer*> buffers ORDO_GUARDED_BY(mutex);
};

BufferRegistry& registry() {
  static BufferRegistry* r = new BufferRegistry;
  return *r;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto* b = new ThreadBuffer;
    BufferRegistry& r = registry();
    MutexLock lock(r.mutex);
    b->thread_id = static_cast<int>(r.buffers.size());
    r.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

std::int64_t trace_now_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point anchor = clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                               anchor)
      .count();
}

bool tracing_enabled() {
  // Relaxed: an on/off flag polled per span; buffers carry their own locks.
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool enabled) {
  if (enabled) trace_now_us();  // pin the time anchor before the first span
  g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

void clear_trace() {
  BufferRegistry& r = registry();
  MutexLock lock(r.mutex);
  for (ThreadBuffer* buffer : r.buffers) {
    MutexLock buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
}

std::vector<SpanEvent> collect_trace() {
  std::vector<SpanEvent> all;
  {
    // Lock order: registry mutex, then each buffer mutex. Appenders only
    // ever take their own buffer mutex, so the order cannot invert.
    BufferRegistry& r = registry();
    MutexLock lock(r.mutex);
    for (ThreadBuffer* buffer : r.buffers) {
      MutexLock buffer_lock(buffer->mutex);
      all.insert(all.end(), buffer->events.begin(), buffer->events.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.depth < b.depth;
            });
  return all;
}

void write_chrome_trace(std::ostream& out) {
  const std::vector<SpanEvent> events = collect_trace();
  const long pid = static_cast<long>(::getpid());
  // schema_version and pid are ours (chrome://tracing ignores unknown
  // top-level keys); schema_version tracks the span "args" layout,
  // versioned with the metrics document.
  out << "{\"schema_version\":" << kMetricsSchemaVersion << ",\"pid\":" << pid
      << ",\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::string name;
  for (const SpanEvent& e : events) {
    if (!first) out << ',';
    first = false;
    name.clear();
    append_json_string(name, e.name);
    out << "{\"name\":" << name
        << ",\"cat\":\"ordo\",\"ph\":\"X\",\"ts\":" << e.start_us
        << ",\"dur\":" << e.duration_us << ",\"pid\":" << pid
        << ",\"tid\":" << e.thread_id << ",\"args\":{\"depth\":" << e.depth
        << "}}";
  }
  out << "]}\n";
}

void write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path);
  require(out.good(), "write_chrome_trace_file: cannot open " + path);
  write_chrome_trace(out);
}

Span::Span(const char* name) {
  if (tracing_enabled()) open(name);
}

Span::Span(std::string name) {
  if (tracing_enabled()) open(std::move(name));
}

void Span::open(std::string name) {
  active_ = true;
  name_ = std::move(name);
  depth_ = local_buffer().depth++;
  start_us_ = trace_now_us();
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end_us = trace_now_us();
  ThreadBuffer& buffer = local_buffer();
  buffer.depth--;
  SpanEvent event;
  event.name = std::move(name_);
  event.start_us = start_us_;
  event.duration_us = end_us - start_us_;
  event.thread_id = buffer.thread_id;
  event.depth = depth_;
  MutexLock lock(buffer.mutex);
  buffer.events.push_back(std::move(event));
}

}  // namespace ordo::obs
