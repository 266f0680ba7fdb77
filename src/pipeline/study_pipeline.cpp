#include "pipeline/study_pipeline.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "check/invariants.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/status/status.hpp"
#include "pipeline/cancel.hpp"
#include "pipeline/journal.hpp"
#include "pipeline/task_pool.hpp"

namespace ordo::pipeline {
namespace {

// Fault injection for the shard tests and the CI shard-smoke job:
// ORDO_SHARD_EXIT_AFTER=<shard>:<count> makes shard worker <shard> die
// (hard _exit, no unwinding, no final journal flush beyond what append
// already flushed — the closest in-process model of a SIGKILL) after
// completing <count> tasks in this run. Parsed once per pipeline run;
// ignored outside shard workers.
struct ShardFault {
  int shard = -1;
  int exit_after = -1;
};

ShardFault shard_fault_from_env() {
  ShardFault fault;
  if (const char* raw = std::getenv("ORDO_SHARD_EXIT_AFTER")) {
    int shard = -1;
    int count = -1;
    if (std::sscanf(raw, "%d:%d", &shard, &count) == 2 && shard >= 0 &&
        count >= 0) {
      fault.shard = shard;
      fault.exit_after = count;
    }
  }
  return fault;
}

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

std::string shard_failures_filename(int shard_index) {
  require(shard_index >= 0, "pipeline: negative shard index");
  return "study_failures.shard" + std::to_string(shard_index) + ".jsonl";
}

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

std::vector<StudyTaskFailure> load_failures_file(const std::string& path) {
  std::vector<StudyTaskFailure> failures;
  std::ifstream in(path);
  if (!in.good()) return failures;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      const obs::JsonValue doc = obs::parse_json(line);
      StudyTaskFailure f;
      f.index = static_cast<int>(doc.at("index").as_int());
      f.group = doc.at("group").as_string();
      f.name = doc.at("name").as_string();
      f.error = doc.at("error").as_string();
      f.timed_out = doc.at("timed_out").boolean;
      f.seconds = doc.at("seconds").as_double();
      if (const obs::JsonValue* kind = doc.find("invariant_kind")) {
        f.invariant_kind = kind->as_string();
      }
      failures.push_back(std::move(f));
    } catch (const std::exception&) {
      break;  // torn tail from a killed writer — same policy as the journal
    }
  }
  return failures;
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

  // Shard-worker mode (options.shard_index >= 0, set by the fork
  // orchestrator in src/pipeline/shard.cpp): this process owns the corpus
  // indices congruent to shard_index modulo shards, journals to the
  // shard-suffixed files, and leaves every foreign slot empty for the
  // parent's merge.
  const bool shard_worker = options.shard_index >= 0;
  if (shard_worker) {
    require(options.shards > 1 && options.shard_index < options.shards,
            "pipeline: shard_index " + std::to_string(options.shard_index) +
                " out of range for " + std::to_string(options.shards) +
                " shards");
    require(!options.checkpoint_dir.empty(),
            "pipeline: shard workers need a checkpoint directory (the shard "
            "journals are the merge channel)");
  }
  auto owned = [&](std::size_t i) {
    return !shard_worker ||
           static_cast<int>(i % static_cast<std::size_t>(options.shards)) ==
               options.shard_index;
  };

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
  std::vector<char> done(n, 0);

  // Checkpoint journal: replay, then rewrite (header + replayed records) so
  // the file also recovers from a corrupt tail left by a killed run.
  std::unique_ptr<JournalWriter> journal;
  if (!options.checkpoint_dir.empty()) {
    namespace fs = std::filesystem;
    fs::create_directories(options.checkpoint_dir);
    const std::string path =
        (fs::path(options.checkpoint_dir) /
         (shard_worker ? shard_journal_filename(options.shard_index)
                       : std::string(kJournalFilename)))
            .string();
    const JournalKey key = make_journal_key(corpus, options);
    if (options.resume) {
      ORDO_SCOPE("pipeline/journal_replay");
      for (JournalRecord& record : load_journal(path, key)) {
        // A record outside this worker's slice (the topology changed between
        // runs) is dropped rather than replayed: the shard owning it will
        // recompute it, and replaying it here would double-count the row in
        // the parent's merge.
        if (!owned(static_cast<std::size_t>(record.index))) continue;
        slots[static_cast<std::size_t>(record.index)] = std::move(record.rows);
        done[static_cast<std::size_t>(record.index)] = 1;
        ++report.resumed;
      }
      if (shard_worker) {
        // Cross-topology resume: a merged journal left by a previous run
        // (any shard count, including an unsharded one) seeds the slots the
        // shard journal does not cover. The rewrite below copies them into
        // the shard journal, so the next resume is self-contained.
        const std::string merged =
            (fs::path(options.checkpoint_dir) / kJournalFilename).string();
        for (JournalRecord& record : load_journal(merged, key)) {
          const auto idx = static_cast<std::size_t>(record.index);
          if (!owned(idx) || done[idx]) continue;
          slots[idx] = std::move(record.rows);
          done[idx] = 1;
          ++report.resumed;
        }
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
      if (done[i]) journal->append({static_cast<int>(i), *slots[i]});
    }
  }

  DeadlineWatchdog watchdog;
  const double timeout = options.task_timeout_seconds;
  const ShardFault fault = shard_fault_from_env();
  std::atomic<int> completed_this_run{0};

  auto execute = [&](std::size_t i) {
    const CorpusEntry& entry = corpus[i];
    obs::Span task_span("pipeline/task/" + entry.name);
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

    obs::Stopwatch watch;
    auto record_failure = [&](const char* what,
                              const std::string& invariant_kind) {
      StudyTaskFailure failure;
      failure.index = static_cast<int>(i);
      failure.group = entry.group;
      failure.name = entry.name;
      failure.error = what;
      failure.timed_out = token.cancelled();
      failure.seconds = watch.seconds();
      failure.invariant_kind = invariant_kind;
      ORDO_COUNTER_ADD("pipeline.tasks.failed", 1);
      if (failure.timed_out) ORDO_COUNTER_ADD("pipeline.tasks.timeout", 1);
      // Failed tasks belong in the tail too: a sweep whose p99 is a string
      // of timeouts must not report the p99 of its successes.
      ORDO_LATENCY_RECORD("task", failure.seconds);
      obs::logf(obs::LogLevel::kProgress, "task %s %s after %.2fs: %s",
                entry.name.c_str(),
                failure.timed_out ? "timed out" : "failed", failure.seconds,
                failure.error.c_str());
      failure_slots[i] = std::move(failure);
    };
    try {
      MatrixStudyRows rows = run_matrix_study(entry, task_options);
      ORDO_HISTOGRAM_RECORD("pipeline.task.seconds", watch.seconds());
      ORDO_LATENCY_RECORD("task", watch.seconds());
      slots[i] = std::move(rows);
      obs::status::set_phase("journal");
      if (journal) {
        // The journal write is the only phase serialized across workers
        // (the writer's internal lock), so its tail is the first place
        // checkpoint-fsync contention shows up.
        obs::Stopwatch journal_watch;
        journal->append({static_cast<int>(i), *slots[i]});
        ORDO_LATENCY_RECORD("phase.journal", journal_watch.seconds());
      }
      ORDO_COUNTER_ADD("pipeline.tasks.completed", 1);
      obs::status::task_finished(/*failed=*/false, /*timed_out=*/false,
                                 watch.seconds());
      // Relaxed: the counter only gates the fault-injection exit below; no
      // other memory is published through it.
      const int completed =
          completed_this_run.fetch_add(1, std::memory_order_relaxed) + 1;
      if (shard_worker && fault.exit_after >= 0 &&
          options.shard_index == fault.shard && completed >= fault.exit_after) {
        obs::logf(obs::LogLevel::kProgress,
                  "shard %d: ORDO_SHARD_EXIT_AFTER fired after %d tasks",
                  options.shard_index, completed);
        ::_exit(113);  // models a SIGKILL: no unwinding, no final flushes
      }
    } catch (const check::InvariantViolation& e) {
      // A contract breach inside one matrix's study is isolated like any
      // other failure, but tagged with its violation class so the failure
      // file distinguishes "wrong answer detected" from "crashed/slow".
      ORDO_COUNTER_ADD("pipeline.tasks.invariant_violations", 1);
      record_failure(e.what(), violation_kind_name(e.kind()));
      obs::status::task_finished(/*failed=*/true, token.cancelled(),
                                 watch.seconds());
    } catch (const std::exception& e) {
      record_failure(e.what(), std::string());
      obs::status::task_finished(/*failed=*/true, token.cancelled(),
                                 watch.seconds());
    }
  };

  std::vector<std::size_t> todo;
  todo.reserve(n);
  std::size_t owned_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!owned(i)) continue;
    ++owned_total;
    if (!done[i]) todo.push_back(i);
  }
  ORDO_COUNTER_ADD("pipeline.tasks.queued",
                   static_cast<std::int64_t>(todo.size()));

  int jobs = options.jobs;
  if (jobs == 0) {
    jobs = obs::affinity_cpu_count();
  }
  jobs = std::max(1, jobs);

  // A shard worker reports its own slice as the run: the parent's "shards"
  // status section aggregates the per-shard fractions back into a whole.
  obs::status::begin_run(static_cast<std::int64_t>(owned_total), jobs,
                         report.resumed);
  if (jobs == 1) {
    // Sequential path: inline on the calling thread, in corpus order.
    for (std::size_t i : todo) execute(i);
  } else {
    // Largest first from one shared cursor: each worker takes the next
    // task as soon as it is free, so the small tasks fill in behind the
    // large ones instead of one large task starting last.
    const std::vector<std::size_t> order = dispatch_order(corpus, todo);
    const int workers = std::min<int>(
        jobs, static_cast<int>(std::max<std::size_t>(1, order.size())));
    std::atomic<std::size_t> cursor{0};
    TaskPool pool(workers);
    for (int w = 0; w < workers; ++w) {
      pool.submit([&] {
        // Relaxed: the cursor only hands out distinct indices; each task's
        // slot is published to the merge by the pool's wait_idle.
        for (std::size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
             k < order.size();
             k = cursor.fetch_add(1, std::memory_order_relaxed)) {
          execute(order[k]);
        }
      });
    }
    pool.wait_idle();
  }
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
        (fs::path(options.checkpoint_dir) /
         (shard_worker ? shard_failures_filename(options.shard_index)
                       : std::string(kFailuresFilename)))
            .string();
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
