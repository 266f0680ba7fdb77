// ordo::obs — observability for the study pipeline: scoped-timer tracing,
// a metrics registry (counters, gauges and one histogram type), the Phase
// object that times a phase into it, and a structured logging sink,
// configured from the environment and flushed once at the end of a run.
//
// Environment knobs (read by init_from_env):
//   ORDO_TRACE=path    enable span tracing; write Chrome trace_event JSON to
//                      `path` at finalize() (view in chrome://tracing)
//   ORDO_LOG=level     quiet|progress|debug structured logging on stderr
//   ORDO_METRICS=path  write the metrics registry as JSON to `path` at
//                      finalize() (benches default this to ordo_metrics.json)
//   ORDO_PROFILE=1     per-thread profiling in the real SpMV kernels: each
//                      launch records observed per-thread seconds/nnz and
//                      imbalance into the registry
//   ORDO_HW=1          open the hardware performance-counter session
//                      (obs/hw/hw_counters.hpp); degrades to a null backend
//                      when perf_event is unavailable, never a hard failure
//   ORDO_STATUS_FILE=path
//                      rewrite a live status snapshot to `path` every
//                      ORDO_STATUS_INTERVAL seconds (obs/status/status.hpp)
//
// Design constraints (see DESIGN.md "Observability"):
//  * zero overhead in kernel inner loops — instrumentation sits at phase
//    granularity only, and kernels take one branch per *launch*;
//  * compiled out entirely with -DORDO_OBS=OFF (the macros become no-ops);
//  * when compiled in but not enabled, a span costs one relaxed atomic load.
#pragma once

#include <optional>
#include <string>

#include "obs/hw/hw_counters.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"

namespace ordo::obs {

/// Reads ORDO_TRACE / ORDO_LOG / ORDO_METRICS / ORDO_PROFILE / ORDO_HW /
/// ORDO_STATUS_FILE and applies them (idempotent; later calls re-read the
/// environment). Also registers the exit-time flush (see finalize), so
/// configured outputs are written even when a main exits early or a failure
/// path unwinds past the explicit dump.
void init_from_env();

/// Output path for the Chrome trace, empty when tracing is not being
/// exported.
std::string trace_output_path();
void set_trace_output_path(const std::string& path);

/// Output path for the metrics JSON dump, empty for none.
std::string metrics_output_path();
void set_metrics_output_path(const std::string& path);

/// True when the real SpMV kernels should record observed per-thread
/// work/time (one branch per kernel launch).
bool profiling_enabled();
void set_profiling_enabled(bool enabled);

/// Explicit mid-run metrics dump: writes the registry JSON (same
/// schema_version-stamped document as the atexit dump) to the configured
/// metrics path via write-temp-then-rename, so a concurrent reader never
/// sees a torn file. No-op when no path is configured; write failures are
/// logged, never thrown (the status snapshot path calls this from service
/// threads). The atexit dump stays byte-compatible — both funnel through
/// write_metrics_json.
void flush_metrics();

/// Writes the configured trace, metrics and bench-report outputs (no-op for
/// unset paths). Registered via std::atexit by init_from_env (and by any
/// output-path setter), so every configured output survives an early exit;
/// long-lived embedders may also call it repeatedly. Also stops the status
/// heartbeat (status::stop()), flushing one final snapshot.
void finalize();

/// One timed phase of a run: the single RAII object for a site that would
/// otherwise wire a status tag, a span, an hw counter window and a
/// stopwatch feeding a histogram by hand. Construction tags the calling
/// task's status slot, then opens the span and the counter window, then
/// starts the clock, so the measured seconds exclude all three. close()
/// (or destruction, also while unwinding) reads the clock, stops the
/// counter window and records the seconds; the span stays open until
/// destruction, so nesting follows the object's scope.
class Phase {
 public:
  /// What the phase opens and records; every part is optional.
  struct Parts {
    /// status::set_phase tag; must have static storage duration.
    Parts& status(const char* tag) {
      status_tag = tag;
      return *this;
    }
    /// Trace span name.
    Parts& span(std::string name) {
      span_name = std::move(name);
      return *this;
    }
    /// hw::CounterScope metric name.
    Parts& hw(std::string name) {
      hw_name = std::move(name);
      return *this;
    }
    /// Histogram that records the phase's wall seconds.
    Parts& histogram(std::string name) {
      histogram_name = std::move(name);
      return *this;
    }

    const char* status_tag = nullptr;
    std::string span_name;
    std::string hw_name;
    std::string histogram_name;
  };

  explicit Phase(Parts parts);
  ~Phase() { close(); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  /// Seconds since the phase opened (still running after close()).
  double seconds() const { return watch_.seconds(); }

  /// Ends the measurement and returns its seconds. Idempotent: later calls
  /// return the first close's value. The histogram sample compiles out with
  /// ORDO_OBS=OFF.
  double close();

 private:
  std::optional<Span> span_;
  std::optional<hw::CounterScope> hw_;
  std::string histogram_;
  bool open_ = true;
  double seconds_ = 0.0;
  Stopwatch watch_;
};

}  // namespace ordo::obs
