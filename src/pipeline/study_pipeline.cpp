#include "pipeline/study_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "check/invariants.hpp"
#include "obs/obs.hpp"
#include "obs/status/status.hpp"
#include "pipeline/cancel.hpp"
#include "pipeline/fork_join.hpp"
#include "pipeline/journal.hpp"

namespace ordo::pipeline {
namespace {

// Disarms a token from the watchdog on scope exit, including the unwind
// path of a cancelled task (the token dies with this frame).
struct ArmGuard {
  DeadlineWatchdog& watchdog;
  CancelToken& token;
  bool armed = false;
  ~ArmGuard() {
    if (armed) watchdog.disarm(&token);
  }
};

// One structured JSON line per failure, truncating `path`.
void write_failures_file(const std::string& path,
                         const std::vector<StudyTaskFailure>& failures) {
  std::ofstream out(path, std::ios::trunc);
  require(out.good(), "pipeline: cannot open " + path);
  for (const StudyTaskFailure& f : failures) {
    char seconds[32];
    std::snprintf(seconds, sizeof(seconds), "%.6g", f.seconds);
    out << "{\"index\":" << f.index << ",\"group\":" << json_quote(f.group)
        << ",\"name\":" << json_quote(f.name)
        << ",\"timed_out\":" << (f.timed_out ? "true" : "false")
        << ",\"seconds\":" << seconds << ",\"error\":" << json_quote(f.error);
    if (!f.invariant_kind.empty()) {
      out << ",\"invariant_kind\":" << json_quote(f.invariant_kind);
    }
    out << "}\n";
  }
}

}  // namespace

std::vector<std::size_t> dispatch_order(const std::vector<CorpusEntry>& corpus,
                                        std::vector<std::size_t> todo) {
  std::sort(todo.begin(), todo.end(), [&](std::size_t a, std::size_t b) {
    const offset_t nnz_a = corpus[a].matrix.num_nonzeros();
    const offset_t nnz_b = corpus[b].matrix.num_nonzeros();
    return nnz_a != nnz_b ? nnz_a > nnz_b : a < b;
  });
  return todo;
}

StudyReport run_study_pipeline(const std::vector<CorpusEntry>& corpus,
                               const StudyOptions& options) {
  ORDO_SCOPE("pipeline/run");
  // Legacy knob: --verbose is equivalent to ORDO_LOG=progress (it never
  // lowers a level already raised through the environment).
  if (options.verbose && !obs::log_enabled(obs::LogLevel::kProgress)) {
    obs::set_log_level(obs::LogLevel::kProgress);
  }

  const auto& machines = table2_architectures();
  const std::size_t n = corpus.size();

  // Resolve (and validate) the kernel set up front. Nondeterministic
  // kernels are refused in checkpointed sweeps: the journal's guarantee is
  // a byte-identical resume, and atomic-scatter float summation cannot
  // reproduce its rows across runs.
  const std::vector<SpmvKernel> kernels = study_kernels(options);
  if (!options.checkpoint_dir.empty() && !options.allow_nondeterministic) {
    for (const SpmvKernel& kernel : kernels) {
      const engine::KernelDesc& desc = engine::kernel(kernel.id());
      require(desc.caps.deterministic,
              "pipeline: kernel '" + kernel.id() +
                  "' is nondeterministic (" + desc.summary +
                  "), which breaks the checkpoint journal's byte-identical "
                  "resume guarantee; pass --allow-nondeterministic "
                  "(StudyOptions::allow_nondeterministic) or disable "
                  "checkpointing to sweep it anyway");
    }
  }

  StudyReport report;
  // One slot per matrix index: tasks fill their own slot, the merge walks
  // the slots in corpus order — result files come out byte-identical for
  // every jobs value.
  std::vector<std::optional<MatrixStudyRows>> slots(n);
  std::vector<std::optional<StudyTaskFailure>> failure_slots(n);

  // Checkpoint journal: replay, then rewrite (header + replayed records) so
  // the file also recovers from a corrupt tail left by a killed run.
  std::unique_ptr<JournalWriter> journal;
  if (!options.checkpoint_dir.empty()) {
    namespace fs = std::filesystem;
    fs::create_directories(options.checkpoint_dir);
    const std::string path =
        (fs::path(options.checkpoint_dir) / kJournalFilename).string();
    const JournalKey key = make_journal_key(corpus, options);
    if (options.resume) {
      ORDO_SCOPE("pipeline/journal_replay");
      for (JournalRecord& record : load_journal(path, key)) {
        slots[static_cast<std::size_t>(record.index)] = std::move(record.rows);
        ++report.resumed;
      }
      if (report.resumed > 0) {
        ORDO_COUNTER_ADD("pipeline.tasks.resumed", report.resumed);
        obs::logf(obs::LogLevel::kProgress,
                  "resuming study: %d of %zu matrices replayed from %s",
                  report.resumed, n, path.c_str());
      }
    }
    journal = std::make_unique<JournalWriter>(path, key);
    for (std::size_t i = 0; i < n; ++i) {
      if (slots[i]) journal->append({static_cast<int>(i), *slots[i]});
    }
  }

  DeadlineWatchdog watchdog;
  const double timeout = options.task_timeout_seconds;

  auto execute = [&](std::size_t i) {
    const CorpusEntry& entry = corpus[i];
    // Every task's wall time, failed ones included: a sweep whose p99 is a
    // string of timeouts must not report the p99 of its successes.
    obs::Phase task(obs::Phase::Parts()
                        .span("pipeline/task/" + entry.name)
                        .histogram("pipeline.task.seconds"));
    obs::status::task_started(static_cast<int>(i), entry.name, timeout);
    obs::logf(obs::LogLevel::kProgress, "[%zu/%zu] %s (n=%d, nnz=%lld)", i + 1,
              n, entry.name.c_str(), static_cast<int>(entry.matrix.num_rows()),
              static_cast<long long>(entry.matrix.num_nonzeros()));

    CancelToken token;
    ArmGuard guard{watchdog, token};
    if (timeout > 0.0) {
      watchdog.arm(&token, std::chrono::steady_clock::now() +
                               std::chrono::duration_cast<
                                   std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double>(timeout)));
      guard.armed = true;
    }
    StudyOptions task_options = options;
    task_options.reorder.cancel = token.flag();

    auto record_failure = [&](const char* what,
                              const std::string& invariant_kind) {
      StudyTaskFailure failure;
      failure.index = static_cast<int>(i);
      failure.group = entry.group;
      failure.name = entry.name;
      failure.error = what;
      failure.timed_out = token.cancelled();
      failure.seconds = task.close();
      failure.invariant_kind = invariant_kind;
      ORDO_COUNTER_ADD("pipeline.tasks.failed", 1);
      if (failure.timed_out) ORDO_COUNTER_ADD("pipeline.tasks.timeout", 1);
      obs::logf(obs::LogLevel::kProgress, "task %s %s after %.2fs: %s",
                entry.name.c_str(),
                failure.timed_out ? "timed out" : "failed", failure.seconds,
                failure.error.c_str());
      failure_slots[i] = std::move(failure);
    };
    try {
      MatrixStudyRows rows = run_matrix_study(entry, task_options);
      task.close();
      slots[i] = std::move(rows);
      if (journal) {
        // The journal write is the only phase serialized across workers
        // (the writer's internal lock), so its tail is the first place
        // checkpoint-fsync contention shows up.
        obs::Phase journal_phase(
            obs::Phase::Parts().status("journal").histogram("phase.journal"));
        journal->append({static_cast<int>(i), *slots[i]});
      }
      ORDO_COUNTER_ADD("pipeline.tasks.completed", 1);
      obs::status::task_finished(/*failed=*/false, /*timed_out=*/false,
                                 task.seconds());
    } catch (const check::InvariantViolation& e) {
      // A contract breach inside one matrix's study is isolated like any
      // other failure, but tagged with its violation class so the failure
      // file distinguishes "wrong answer detected" from "crashed/slow".
      ORDO_COUNTER_ADD("pipeline.tasks.invariant_violations", 1);
      record_failure(e.what(), violation_kind_name(e.kind()));
      obs::status::task_finished(/*failed=*/true, token.cancelled(),
                                 task.seconds());
    } catch (const std::exception& e) {
      record_failure(e.what(), std::string());
      obs::status::task_finished(/*failed=*/true, token.cancelled(),
                                 task.seconds());
    }
  };

  std::vector<std::size_t> todo;
  todo.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!slots[i]) todo.push_back(i);
  }
  ORDO_COUNTER_ADD("pipeline.tasks.queued",
                   static_cast<std::int64_t>(todo.size()));

  int jobs = options.jobs;
  if (jobs == 0) {
    jobs = obs::affinity_cpu_count();
  }
  jobs = std::max(1, jobs);

  obs::status::begin_run(static_cast<std::int64_t>(n), jobs, report.resumed);
  // One job runs inline in corpus order. More take the largest first from
  // one shared cursor: each thread takes the next task as soon as it is
  // free, so the small tasks fill in behind the large ones instead of one
  // large task starting last.
  const std::vector<std::size_t> order =
      jobs == 1 ? todo : dispatch_order(corpus, todo);
  run_tasks(order.size(), jobs, [&](std::size_t k) { execute(order[k]); });
  obs::status::end_run();

  {
    ORDO_SCOPE("pipeline/merge");
    for (const Architecture& arch : machines) {
      for (const SpmvKernel& kernel : kernels) {
        report.results[{arch.name, kernel}] = {};
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!slots[i]) continue;
      for (auto& [key, row] : *slots[i]) {
        report.results[key].push_back(std::move(row));
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (failure_slots[i]) report.failures.push_back(std::move(*failure_slots[i]));
  }
  report.computed = static_cast<int>(todo.size()) -
                    static_cast<int>(report.failures.size());

  if (!options.checkpoint_dir.empty()) {
    namespace fs = std::filesystem;
    const std::string path =
        (fs::path(options.checkpoint_dir) / kFailuresFilename).string();
    if (report.failures.empty()) {
      std::error_code ignored;
      fs::remove(path, ignored);
    } else {
      write_failures_file(path, report.failures);
    }
  }
  return report;
}

}  // namespace ordo::pipeline
