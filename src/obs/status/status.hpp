// ordo::obs::status — live telemetry for long-running sweeps.
//
// A full study is hours of work whose only signals used to be log lines and
// an atexit ordo_metrics.json. The StatusBoard turns the process into
// something an operator can *watch*: it composes point-in-time JSON
// snapshots of the whole system — pipeline progress (tasks done / failed /
// in flight, with per-task matrix id, phase, elapsed and deadline margin),
// journal-derived completion fraction and an EWMA-based ETA, the metrics
// registry with per-counter deltas since the previous snapshot, and the
// latest hardware-counter window (IPC, LLC miss rate, achieved-vs-peak
// GB/s) when an ORDO_HW session is live. Subsystems add no sections of
// their own: the engine's plan cache (engine.plan_cache.*) and the ordering
// selector (select.*) publish through registry instruments, so they appear
// under "metrics" like every other layer.
//
// The one out-of-process consumer is the heartbeat file (heartbeat.hpp):
// an atomically-renamed ordo_status.json rewritten every interval
// (ORDO_STATUS_FILE / run_study --status-file), which tools/ordo_top.py
// --file renders and validates.
//
// Consistency model (DESIGN.md §11): the board is lock-light on the write
// side — task hooks touch only per-slot atomics plus a per-slot mutex for
// the matrix name, never a board-wide lock — so workers never serialize on
// telemetry. A snapshot is *read-coherent per field*, not a global atomic
// cut: counts are monotonic, but a snapshot taken mid-transition may see a
// task already counted completed while its worker slot still reads active.
// Snapshots themselves serialize on one snapshot mutex, so the heartbeat
// and in-process callers of snapshot_json() take turns (each snapshot also
// carries since-last-snapshot deltas, which need a linear history).
//
// Every hook is a no-op (one thread-local read) on threads that never
// registered a task, so benches and library code call set_phase freely.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ordo::obs::status {

/// Layout version of the heartbeat document; bumped whenever a
/// field changes meaning so ordo_top and CI checkers can detect drift.
/// v2: adds the "latency" section (tail-latency histograms with their
/// buckets) and run.rate_tasks_per_second.
/// v3: metrics.histograms entries carry percentiles and buckets (see
/// obs::append_histogram_json), and the "latency" section is gone.
/// v4: the "plan_cache" and "select" sections are gone; their numbers are
/// the engine.plan_cache.* and select.* instruments under "metrics". The
/// top-level keys are schema_version, pid, uptime_seconds, run, workers,
/// metrics and, with a hw session, hw.
inline constexpr int kStatusSchemaVersion = 4;

// --- pipeline hooks --------------------------------------------------------
// Called by the study scheduler (src/pipeline/study_pipeline.cpp). A task is
// bound to the calling thread: task_started claims a worker slot for the
// thread (reused across its tasks), set_phase tags the slot, task_finished
// releases it.

/// A sweep is starting: `total` corpus tasks, `workers` scheduled threads,
/// `resumed` tasks replayed from the checkpoint journal (they count toward
/// the completion fraction but not toward the ETA's per-task EWMA).
void begin_run(std::int64_t total, int workers, std::int64_t resumed);

/// The sweep finished (the board keeps its final counts for late polls).
void end_run();

/// The calling thread begins study task `index` on matrix `name`;
/// `deadline_seconds` is the soft per-task deadline (0 = none).
void task_started(int index, const std::string& name, double deadline_seconds);

/// Tags the calling thread's in-flight task with a phase marker ("reorder",
/// "spmv", "journal", ...). `phase` must have static storage duration — the
/// board keeps the pointer, not a copy. No-op without an in-flight task.
void set_phase(const char* phase);

/// The calling thread's in-flight task ended after `seconds`.
void task_finished(bool failed, bool timed_out, double seconds);

// --- snapshots -------------------------------------------------------------

/// Composes a point-in-time snapshot of the whole system as a JSON document
/// (see kStatusSchemaVersion). Also flushes the metrics registry to the
/// configured ORDO_METRICS path (obs::flush_metrics), so the on-disk dump
/// tracks the live view instead of appearing only at exit.
std::string snapshot_json();

/// Parsed-back progress for tests and in-process consumers.
struct ProgressSnapshot {
  bool running = false;
  std::int64_t total = 0;
  std::int64_t completed = 0;  ///< computed by this run (excludes resumed)
  std::int64_t failed = 0;
  std::int64_t timeouts = 0;
  std::int64_t resumed = 0;
  int workers = 0;
  int in_flight = 0;
  double fraction = 0.0;  ///< (resumed+completed+failed) / total, 0 when idle
  bool has_eta = false;   ///< false until the first completion of this run
  double eta_seconds = 0.0;
  double elapsed_seconds = 0.0;  ///< since begin_run
  /// Pace signal: workers / EWMA task seconds. Absent (has_rate false)
  /// until this run's first completion, like the ETA.
  bool has_rate = false;
  double rate_tasks_per_second = 0.0;
};
ProgressSnapshot progress();

/// One in-flight worker slot as a snapshot sees it.
struct WorkerSnapshot {
  int slot = -1;
  int task_index = -1;
  std::string matrix;
  std::string phase;  ///< empty until the first set_phase of the task
  double elapsed_seconds = 0.0;
  bool has_deadline = false;
  double deadline_margin_seconds = 0.0;  ///< negative once past the deadline
};
std::vector<WorkerSnapshot> in_flight_workers();

// --- process-wide consumers ------------------------------------------------

/// Reads ORDO_STATUS_FILE / ORDO_STATUS_INTERVAL (heartbeat file, default
/// 1s cadence; a malformed interval throws invalid_argument_error) and
/// starts the heartbeat writer. Called from obs::init_from_env().
void init_from_env();

/// Starts (or re-points) the heartbeat writer: every `interval_seconds` it
/// writes a snapshot to `path` via write-temp-then-rename, so readers never
/// observe a torn document and a SIGKILLed process leaves the last complete
/// snapshot behind.
void start_heartbeat(const std::string& path, double interval_seconds = 1.0);

/// True when the heartbeat writer is running — the gate hot call sites
/// (engine kernel launches) check before tagging phases.
bool consumers_active();

/// Stops the heartbeat writer, which writes one final snapshot on the way
/// out (a SIGTERM-to-exit path leaves a fresh file).
/// Idempotent; called from obs::finalize().
void stop();

}  // namespace ordo::obs::status
