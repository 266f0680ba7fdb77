#include "obs/obs.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>

#include "core/thread_safety.hpp"
#include "obs/status/status.hpp"

namespace ordo::obs {
namespace {

Mutex g_config_mutex;
std::string g_trace_path ORDO_GUARDED_BY(g_config_mutex);
std::string g_metrics_path ORDO_GUARDED_BY(g_config_mutex);
std::atomic<bool> g_profiling{false};

// The exit-time flush: without it, a bench main that exits early (or a
// StudyTaskFailure path that unwinds before the explicit dump) silently
// dropped its metrics and trace buffers. Registered at most once, from
// init_from_env and from every output-path setter — whichever runs first.
std::once_flag g_atexit_once;

void register_atexit_flush() {
  std::call_once(g_atexit_once, [] { std::atexit([] { finalize(); }); });
}

}  // namespace

void init_from_env() {
  register_atexit_flush();
  trace_now_us();  // pin the process time anchor: the bench report's
                   // process_total_seconds counts from here
  if (const char* trace = std::getenv("ORDO_TRACE")) {
    if (*trace != '\0') {
      set_trace_output_path(trace);
      set_tracing_enabled(true);
    }
  }
  if (const char* level = std::getenv("ORDO_LOG")) {
    if (*level != '\0') set_log_level(parse_log_level(level));
  }
  if (const char* metrics = std::getenv("ORDO_METRICS")) {
    if (*metrics != '\0') set_metrics_output_path(metrics);
  }
  if (const char* profile = std::getenv("ORDO_PROFILE")) {
    set_profiling_enabled(std::strcmp(profile, "0") != 0);
  }
  hw::init_from_env();
  status::init_from_env();
}

void flush_metrics() {
  const std::string path = metrics_output_path();
  if (path.empty()) return;
  const std::string tmp = path + ".tmp";
  try {
    write_metrics_json_file(tmp);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      std::fprintf(stderr, "ordo: flush_metrics: cannot rename %s -> %s\n",
                   tmp.c_str(), path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ordo: flush_metrics failed: %s\n", e.what());
  }
}

std::string trace_output_path() {
  MutexLock lock(g_config_mutex);
  return g_trace_path;
}

void set_trace_output_path(const std::string& path) {
  register_atexit_flush();
  MutexLock lock(g_config_mutex);
  g_trace_path = path;
}

std::string metrics_output_path() {
  MutexLock lock(g_config_mutex);
  return g_metrics_path;
}

void set_metrics_output_path(const std::string& path) {
  register_atexit_flush();
  MutexLock lock(g_config_mutex);
  g_metrics_path = path;
}

bool profiling_enabled() {
  // Relaxed: an on/off flag polled per operation; no data is published
  // through it, so no ordering is needed.
  return g_profiling.load(std::memory_order_relaxed);
}

void set_profiling_enabled(bool enabled) {
  // Relaxed: see profiling_enabled().
  g_profiling.store(enabled, std::memory_order_relaxed);
}

Phase::Phase(Parts parts) : histogram_(std::move(parts.histogram_name)) {
  if (parts.status_tag != nullptr) status::set_phase(parts.status_tag);
  if (!parts.span_name.empty()) span_.emplace(std::move(parts.span_name));
  if (!parts.hw_name.empty()) hw_.emplace(std::move(parts.hw_name));
  watch_.reset();
}

double Phase::close() {
  if (!open_) return seconds_;
  open_ = false;
  seconds_ = watch_.seconds();  // before any bookkeeping below
  if (hw_) hw_->stop();
#if defined(ORDO_OBS_ENABLED)
  if (!histogram_.empty()) histogram(histogram_).record(seconds_);
#endif
  return seconds_;
}

void finalize() {
  // Stop the status heartbeat first: the writer flushes one final
  // snapshot, so an orderly exit (or SIGTERM-to-exit path) leaves a fresh
  // complete document behind.
  try {
    status::stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ordo: status shutdown failed: %s\n", e.what());
  }
  std::string trace_path;
  std::string metrics_path;
  {
    MutexLock lock(g_config_mutex);
    trace_path = g_trace_path;
    metrics_path = g_metrics_path;
  }
  // finalize() typically runs from std::atexit, where an escaping exception
  // is a guaranteed std::terminate — report a failed write instead of
  // aborting after the run's work is already done, and never let a trace
  // failure swallow the metrics dump (or vice versa).
  if (!trace_path.empty() && tracing_enabled()) {
    try {
      write_chrome_trace_file(trace_path);
      logf(LogLevel::kProgress, "wrote trace to %s", trace_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ordo: trace export failed: %s\n", e.what());
    }
  }
  if (!metrics_path.empty()) {
    try {
      write_metrics_json_file(metrics_path);
      logf(LogLevel::kProgress, "wrote metrics to %s", metrics_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ordo: metrics export failed: %s\n", e.what());
    }
  }
  try {
    write_bench_report();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ordo: bench report export failed: %s\n", e.what());
  }
}

}  // namespace ordo::obs
