// The study scheduler: runs the per-matrix study tasks (orderings →
// features → per-(machine, kernel) model evaluation) of a corpus sweep on
// the caller and pool workers (fork_join.hpp), largest matrix first, with
//   (a) per-task error isolation — a matrix whose reordering throws becomes
//       a structured StudyTaskFailure row, never an aborted sweep;
//   (b) soft per-task deadlines with cooperative cancellation (the deadline
//       watchdog flags the task's cancel token; the task unwinds at its next
//       ordering / bisection / separator-level poll site);
//   (c) an on-disk checkpoint journal — one JSON line per completed matrix
//       under options.checkpoint_dir — so an interrupted sweep resumes
//       exactly where it stopped;
//   (d) deterministic output — results are buffered per matrix index and
//       merged in corpus order, so any --jobs value produces byte-identical
//       result files.
//
// Observability: `pipeline.tasks.{queued,completed,failed,timeout,resumed}`
// counters, the `pipeline.task.seconds` (failed tasks included) and
// `phase.journal` histograms, and `pipeline/task/<name>` spans (see
// src/obs); the status board's `in_flight` counts the running tasks.
#pragma once

#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace ordo::pipeline {

/// One isolated per-matrix failure. Failures are not checkpointed: a resumed
/// run retries them (a timeout may have been transient load; a poisoned
/// matrix fails again and is re-recorded).
struct StudyTaskFailure {
  int index = -1;          ///< position in the corpus
  std::string group;
  std::string name;
  std::string error;       ///< exception message
  bool timed_out = false;  ///< failed via the soft deadline
  double seconds = 0.0;    ///< task wall time until the failure
  /// Violation class (check::violation_kind_name) when the task failed an
  /// ordo::check invariant contract; empty for ordinary failures.
  std::string invariant_kind;
};

struct StudyReport {
  StudyResults results;
  std::vector<StudyTaskFailure> failures;
  int resumed = 0;   ///< matrices replayed from the checkpoint journal
  int computed = 0;  ///< matrices computed by this run
};

/// The order a pooled sweep starts the corpus indices in `todo`: nonzeros
/// descending, corpus index ascending among equals. Task time grows with
/// the nonzero count, so this is greedy longest-processing-time-first list
/// scheduling (DESIGN §8).
std::vector<std::size_t> dispatch_order(const std::vector<CorpusEntry>& corpus,
                                        std::vector<std::size_t> todo);

/// Runs the sweep. Scheduling knobs (jobs, task_timeout_seconds,
/// checkpoint_dir, resume) come from `options`; jobs == 1 executes tasks
/// inline on the calling thread in corpus order (the sequential path), any
/// other value runs them on `jobs` threads (the caller and pool workers,
/// pipeline::run_tasks) that take the tasks in dispatch_order from one
/// shared cursor. Also writes
/// `<checkpoint_dir>/study_failures.jsonl` (one structured row per failure;
/// removed again when a run has none) when checkpointing is enabled.
StudyReport run_study_pipeline(const std::vector<CorpusEntry>& corpus,
                               const StudyOptions& options);

/// Failure-row file name inside a checkpoint directory.
inline constexpr const char* kFailuresFilename = "study_failures.jsonl";

}  // namespace ordo::pipeline
