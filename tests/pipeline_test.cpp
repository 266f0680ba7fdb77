// Tests for the study pipeline scheduler (src/pipeline): parallel-vs-
// sequential determinism, per-task failure isolation, checkpoint/resume
// (including a forked study killed with SIGKILL mid-matrix), soft-deadline
// cancellation, and the journal and worker-pool building blocks.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "corpus/corpus.hpp"
#include "corpus/generators.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "pipeline/cancel.hpp"
#include "pipeline/fork_join.hpp"
#include "pipeline/journal.hpp"
#include "pipeline/study_pipeline.hpp"
#include "reorder/reordering.hpp"

// Read by ThreadSanitizer builds only. WorkerPool.ForkedChildStartsItsOwnPool
// forks while pool workers are parked, and its child starts workers of its
// own, which TSan refuses by default after a multi-threaded fork. Parked
// workers hold no lock at the fork, so the child may run; no report is
// suppressed.
extern "C" const char* __tsan_default_options() { return "die_after_fork=0"; }

namespace ordo {
namespace {

namespace fs = std::filesystem;

CorpusOptions tiny_corpus() {
  CorpusOptions options;
  options.count = 4;
  options.scale = 0.02;
  return options;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void expect_identical_measurement(const OrderingMeasurement& a,
                                  const OrderingMeasurement& b,
                                  const std::string& context) {
  EXPECT_EQ(a.min_thread_nnz, b.min_thread_nnz) << context;
  EXPECT_EQ(a.max_thread_nnz, b.max_thread_nnz) << context;
  EXPECT_EQ(a.mean_thread_nnz, b.mean_thread_nnz) << context;
  EXPECT_EQ(a.imbalance, b.imbalance) << context;
  EXPECT_EQ(a.seconds, b.seconds) << context;
  EXPECT_EQ(a.gflops_max, b.gflops_max) << context;
  EXPECT_EQ(a.gflops_mean, b.gflops_mean) << context;
  EXPECT_EQ(a.bandwidth, b.bandwidth) << context;
  EXPECT_EQ(a.profile, b.profile) << context;
  EXPECT_EQ(a.off_diagonal_nnz, b.off_diagonal_nnz) << context;
}

void expect_identical_row(const MeasurementRow& a, const MeasurementRow& b,
                          const std::string& context) {
  EXPECT_EQ(a.group, b.group) << context;
  EXPECT_EQ(a.name, b.name) << context;
  EXPECT_EQ(a.rows, b.rows) << context;
  EXPECT_EQ(a.cols, b.cols) << context;
  EXPECT_EQ(a.nnz, b.nnz) << context;
  EXPECT_EQ(a.threads, b.threads) << context;
  ASSERT_EQ(a.orderings.size(), b.orderings.size()) << context;
  for (std::size_t k = 0; k < a.orderings.size(); ++k) {
    expect_identical_measurement(a.orderings[k], b.orderings[k],
                                 context + " ordering " + std::to_string(k));
  }
}

// Bit-exact equality: determinism across jobs values and across a resumed
// run is a byte-identity guarantee, not an approximate one.
void expect_identical_results(const StudyResults& a, const StudyResults& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, rows_a] : a) {
    ASSERT_TRUE(b.count(key)) << key.first;
    const auto& rows_b = b.at(key);
    ASSERT_EQ(rows_a.size(), rows_b.size()) << key.first;
    for (std::size_t i = 0; i < rows_a.size(); ++i) {
      expect_identical_row(rows_a[i], rows_b[i],
                           key.first + "/" + rows_a[i].name);
    }
  }
}

/// A corpus entry whose study is guaranteed to throw: orderings require a
/// square matrix.
CorpusEntry poisoned_entry() {
  CorpusEntry entry;
  entry.group = "poison";
  entry.name = "nonsquare";
  entry.matrix = CsrMatrix(2, 3, {0, 1, 2}, {0, 2}, {1.0, 1.0});
  return entry;
}

// A corpus entry whose matrix is a diagonal of `nonzeros` entries.
CorpusEntry entry_with_nonzeros(index_t nonzeros) {
  CorpusEntry entry;
  entry.group = "diagonal";
  entry.name = "d" + std::to_string(nonzeros);
  CsrArray<offset_t> row_ptr(static_cast<std::size_t>(nonzeros) + 1);
  CsrArray<index_t> cols(static_cast<std::size_t>(nonzeros));
  std::iota(row_ptr.begin(), row_ptr.end(), offset_t{0});
  std::iota(cols.begin(), cols.end(), index_t{0});
  CsrArray<value_t> values(cols.size(), 1.0);
  entry.matrix = CsrMatrix(nonzeros, nonzeros, std::move(row_ptr),
                           std::move(cols), std::move(values));
  return entry;
}

TEST(DispatchOrder, LargestFirstThenCorpusIndex) {
  // Ties at 5 nonzeros (indices 1, 3, 6) and at 2 (indices 0, 4).
  std::vector<CorpusEntry> corpus;
  for (const index_t nonzeros : {2, 5, 9, 5, 2, 7, 5, 1}) {
    corpus.push_back(entry_with_nonzeros(nonzeros));
  }
  EXPECT_EQ(pipeline::dispatch_order(corpus, {0, 1, 2, 3, 4, 5, 6, 7}),
            (std::vector<std::size_t>{2, 5, 1, 3, 6, 0, 4, 7}));
  // A resumed run dispatches what is left by the same rule, whatever order
  // the indices arrive in.
  EXPECT_EQ(pipeline::dispatch_order(corpus, {7, 6, 4, 3, 1}),
            (std::vector<std::size_t>{1, 3, 6, 4, 7}));
  EXPECT_EQ(pipeline::dispatch_order(corpus, {4, 0}),
            (std::vector<std::size_t>{0, 4}));
  EXPECT_TRUE(pipeline::dispatch_order(corpus, {}).empty());
}

TEST(WorkerPool, RunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> runs(100);
  pipeline::run_tasks(runs.size(), 4, [&runs](std::size_t k) {
    runs[k].fetch_add(1, std::memory_order_relaxed);
  });
  for (const std::atomic<int>& count : runs) {
    EXPECT_EQ(count.load(std::memory_order_relaxed), 1);
  }
  // One thread runs the tasks inline, in order.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pipeline::run_tasks(5, 1, [&](std::size_t k) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(k);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  pipeline::run_tasks(0, 4, [](std::size_t) { ADD_FAILURE(); });
  // A task's error reaches the caller once every thread has finished.
  std::atomic<int> finished{0};
  EXPECT_THROW(pipeline::run_tasks(8, 4,
                                   [&finished](std::size_t k) {
                                     if (k == 3) throw std::runtime_error("3");
                                     finished.fetch_add(
                                         1, std::memory_order_relaxed);
                                   }),
               std::runtime_error);
  EXPECT_GE(finished.load(std::memory_order_relaxed), 3);
}

TEST(DeadlineWatchdog, FlagsOnlyExpiredTokens) {
  pipeline::DeadlineWatchdog watchdog;
  pipeline::CancelToken expired;
  pipeline::CancelToken future;
  const auto now = std::chrono::steady_clock::now();
  watchdog.arm(&expired, now);  // already past
  watchdog.arm(&future, now + std::chrono::hours(1));
  // Poll until the watchdog's scan fires (2ms period; generous bound).
  for (int i = 0; i < 2000 && !expired.cancelled(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(expired.cancelled());
  EXPECT_FALSE(future.cancelled());
  watchdog.disarm(&expired);
  watchdog.disarm(&future);
}

TEST(StudyPipeline, ParallelMatchesSequentialByteForByte) {
  const auto corpus = generate_corpus(tiny_corpus());

  StudyOptions sequential;
  sequential.jobs = 1;
  const StudyResults r1 = run_full_study(corpus, sequential);

  StudyOptions parallel;
  parallel.jobs = 8;
  const StudyResults r8 = run_full_study(corpus, parallel);

  expect_identical_results(r1, r8);

  // And the written artifact files are byte-identical.
  const std::string dir = ::testing::TempDir() + "/ordo_pipeline_determinism";
  fs::create_directories(dir);
  const std::string path1 = dir + "/jobs1.txt";
  const std::string path8 = dir + "/jobs8.txt";
  write_results_file(path1, r1.at({"Milan B", SpmvKernel::k1D}));
  write_results_file(path8, r8.at({"Milan B", SpmvKernel::k1D}));
  EXPECT_EQ(slurp(path1), slurp(path8));
  fs::remove_all(dir);
}

TEST(StudyPipeline, FailedMatrixIsIsolated) {
  auto corpus = generate_corpus(tiny_corpus());
  corpus.insert(corpus.begin() + 1, poisoned_entry());

  StudyOptions options;
  options.jobs = 4;
  const pipeline::StudyReport report =
      pipeline::run_study_pipeline(corpus, options);

  ASSERT_EQ(report.failures.size(), 1u);
  const pipeline::StudyTaskFailure& failure = report.failures.front();
  EXPECT_EQ(failure.index, 1);
  EXPECT_EQ(failure.group, "poison");
  EXPECT_EQ(failure.name, "nonsquare");
  EXPECT_FALSE(failure.error.empty());
  EXPECT_FALSE(failure.timed_out);
  EXPECT_EQ(report.computed, static_cast<int>(corpus.size()) - 1);

  // Every healthy matrix still produced its rows, in corpus order.
  EXPECT_EQ(report.results.size(), 16u);
  for (const auto& [key, rows] : report.results) {
    ASSERT_EQ(rows.size(), corpus.size() - 1) << key.first;
    for (std::size_t i = 0, j = 0; i < corpus.size(); ++i) {
      if (corpus[i].name == "nonsquare") continue;
      EXPECT_EQ(rows[j++].name, corpus[i].name) << key.first;
    }
  }
}

TEST(StudyPipeline, ResumesFromTruncatedJournal) {
  const auto corpus = generate_corpus(tiny_corpus());
  const std::string dir = ::testing::TempDir() + "/ordo_pipeline_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);

  StudyOptions options;
  options.jobs = 1;
  options.checkpoint_dir = dir;
  const pipeline::StudyReport first =
      pipeline::run_study_pipeline(corpus, options);
  EXPECT_EQ(first.resumed, 0);
  EXPECT_EQ(first.computed, static_cast<int>(corpus.size()));

  // Simulate a run killed after k matrices: keep the header plus k record
  // lines, drop the rest (including a torn final line).
  const std::string journal_path =
      (fs::path(dir) / pipeline::kJournalFilename).string();
  std::vector<std::string> lines;
  {
    std::ifstream in(journal_path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), corpus.size() + 1);  // header + one per matrix
  const int k = 2;
  {
    std::ofstream out(journal_path, std::ios::trunc);
    for (int i = 0; i <= k; ++i) out << lines[i] << "\n";
    out << "{\"index\": 3, \"per_machi";  // torn tail from the kill
  }

  const pipeline::StudyReport second =
      pipeline::run_study_pipeline(corpus, options);
  EXPECT_EQ(second.resumed, k);
  EXPECT_EQ(second.computed, static_cast<int>(corpus.size()) - k);
  EXPECT_TRUE(second.failures.empty());
  expect_identical_results(first.results, second.results);

  // --no-resume recomputes everything.
  StudyOptions no_resume = options;
  no_resume.resume = false;
  const pipeline::StudyReport third =
      pipeline::run_study_pipeline(corpus, no_resume);
  EXPECT_EQ(third.resumed, 0);
  EXPECT_EQ(third.computed, static_cast<int>(corpus.size()));
  expect_identical_results(first.results, third.results);
  fs::remove_all(dir);
}

TEST(StudyPipeline, SoftDeadlineCancelsPathologicalTask) {
  // One large matrix (well past the ~2ms watchdog scan period) and a
  // deadline it cannot meet: the task must come back as a timed-out
  // failure, not hang and not abort the sweep. One pool worker leaves the
  // other cores idle, so the partitioners fork and the cancellation may
  // surface on a helper thread; it must still cross back as this failure.
  CorpusOptions big;
  big.count = 1;
  big.scale = 1.0;
  const auto corpus = generate_corpus(big);

  StudyOptions options;
  options.jobs = 2;
  options.task_timeout_seconds = 1e-4;
  const pipeline::StudyReport report =
      pipeline::run_study_pipeline(corpus, options);

  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_TRUE(report.failures.front().timed_out);
  EXPECT_NE(report.failures.front().error.find("cancelled"),
            std::string::npos);
  EXPECT_TRUE(report.results.empty() ||
              report.results.begin()->second.empty());
}

// Polls until `path` holds at least `lines` newline-terminated lines.
// Returns false when `child` exits first (left unreaped, so the caller's
// waitpid still sees how it ended) or two minutes pass.
bool await_complete_lines(const std::string& path, std::size_t lines,
                          pid_t child) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string text = slurp(path);
    const auto complete = std::count(text.begin(), text.end(), '\n');
    if (static_cast<std::size_t>(complete) >= lines) return true;
    siginfo_t info{};
    if (::waitid(P_PID, static_cast<id_t>(child), &info,
                 WEXITED | WNOHANG | WNOWAIT) == 0 &&
        info.si_pid == child) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// Writes every (machine, kernel) result file of `results` into `dir` and
// returns their bytes by file name.
std::map<std::string, std::string> result_file_bytes(
    const StudyResults& results, const std::string& dir) {
  fs::create_directories(dir);
  std::map<std::string, std::string> bytes;
  for (const auto& [key, rows] : results) {
    const std::string leaf = key.first + "." + key.second.id() + ".txt";
    const std::string path = (fs::path(dir) / leaf).string();
    write_results_file(path, rows);
    bytes[leaf] = slurp(path);
  }
  return bytes;
}

TEST(StudyCrash, SigkilledRunResumesByteIdentically) {
  // The tiny corpus with one large matrix (over a second of study work) at
  // position k. At jobs == 1 the tasks run in corpus order, so while the
  // journal holds exactly k records the large matrix is in flight, and a
  // SIGKILL sent then lands mid-run.
  auto corpus = generate_corpus(tiny_corpus());
  const int k = 2;
  corpus.insert(corpus.begin() + k, generate_named("HV15R", 1.0));
  const int n = static_cast<int>(corpus.size());
  const std::string dir = ::testing::TempDir() + "/ordo_pipeline_sigkill";
  fs::remove_all(dir);

  StudyOptions options;
  options.jobs = 1;
  options.checkpoint_dir = dir + "/run";
  const std::string journal =
      (fs::path(options.checkpoint_dir) / pipeline::kJournalFilename).string();

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The child never returns into the test framework.
    int code = 0;
    try {
      pipeline::run_study_pipeline(corpus, options);
    } catch (...) {
      code = 1;
    }
    ::_exit(code);
  }
  // Header plus k records.
  const bool reached =
      await_complete_lines(journal, static_cast<std::size_t>(k) + 1, child);
  ::kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(reached) << "the study never journaled " << k << " records";
  // A child that finished before the kill would make the resume below
  // vacuous: fail instead of passing silently.
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child was not killed mid-run (wait status " << status << ")";

  const pipeline::StudyReport resumed =
      pipeline::run_study_pipeline(corpus, options);
  EXPECT_TRUE(resumed.failures.empty());
  EXPECT_EQ(resumed.resumed, k);
  EXPECT_EQ(resumed.computed, n - k);

  StudyOptions uninterrupted;
  uninterrupted.jobs = 1;
  const pipeline::StudyReport clean =
      pipeline::run_study_pipeline(corpus, uninterrupted);
  ASSERT_TRUE(clean.failures.empty());
  expect_identical_results(clean.results, resumed.results);
  EXPECT_EQ(result_file_bytes(resumed.results, dir + "/resumed"),
            result_file_bytes(clean.results, dir + "/clean"));
  fs::remove_all(dir);
}

#if defined(ORDO_OBS_ENABLED)
TEST(StudyPipeline, PopulatesSchedulerMetrics) {
  obs::reset_metrics();
  const auto corpus = generate_corpus(tiny_corpus());
  StudyOptions options;
  options.jobs = 4;
  const pipeline::StudyReport report =
      pipeline::run_study_pipeline(corpus, options);
  ASSERT_TRUE(report.failures.empty());

  EXPECT_EQ(obs::counter("pipeline.tasks.queued").value(),
            static_cast<std::int64_t>(corpus.size()));
  EXPECT_EQ(obs::counter("pipeline.tasks.completed").value(),
            static_cast<std::int64_t>(corpus.size()));
  EXPECT_EQ(obs::counter("pipeline.tasks.failed").value(), 0);
  EXPECT_EQ(obs::histogram("pipeline.task.seconds").snapshot().count,
            static_cast<std::int64_t>(corpus.size()));
}
#endif

TEST(ForkJoin, BudgetIsAffinityCpusMinusRunningJobs) {
  const int cpus = obs::affinity_cpu_count();
  ASSERT_GE(cpus, 1);
  // The test's own thread is the one busy thread.
  const int idle = pipeline::acquire_idle_cores(cpus);
  EXPECT_EQ(idle, cpus - 1);
  EXPECT_EQ(pipeline::acquire_idle_cores(1), 0);
  pipeline::release_cores(idle);
  // run_tasks' second thread is a worker that counts, idle core or not,
  // only while it runs its job. Task 1 (the worker's) ends only after task
  // 0 (the caller's) has counted, so the worker is still on its job then.
  std::atomic<int> during_job{-1};
  pipeline::run_tasks(2, 2, [&during_job, cpus](std::size_t k) {
    if (k != 0) {
      while (during_job.load(std::memory_order_acquire) < 0) {
        std::this_thread::yield();
      }
      return;
    }
    const int claimed = pipeline::acquire_idle_cores(cpus);
    during_job.store(claimed, std::memory_order_release);
    pipeline::release_cores(claimed);
  });
  EXPECT_EQ(during_job.load(std::memory_order_relaxed),
            std::max(0, cpus - 2));
  const int again = pipeline::acquire_idle_cores(cpus);
  EXPECT_EQ(again, cpus - 1);
  pipeline::release_cores(again);
}

#if defined(ORDO_OBS_ENABLED)
TEST(WorkerPool, ReusesParkedWorkers) {
  // Two row loops and a GP ordering hand their jobs to parked workers, so
  // their spans land on at most the budget's affinity CPUs - 1 threads.
  obs::set_tracing_enabled(true);
  obs::clear_trace();
  const auto chunk = [](std::size_t, std::size_t) {};
  pipeline::parallel_for(1000, 100, chunk);
  pipeline::parallel_for(1000, 100, chunk);
  (void)compute_ordering(gen_mesh2d(64, 64, 5), OrderingKind::kGp,
                         ReorderOptions{});
  std::set<int> workers;
  for (const obs::SpanEvent& span : obs::collect_trace()) {
    if (span.name == "partition/fork" || span.name == "parallel/for") {
      workers.insert(span.thread_id);
    }
  }
  obs::set_tracing_enabled(false);
  obs::clear_trace();
  const int cpus = obs::affinity_cpu_count();
  EXPECT_LE(workers.size(), static_cast<std::size_t>(cpus - 1));
  if (cpus > 1) {
    EXPECT_GE(workers.size(), 1u);
  }
}
#endif

TEST(WorkerPool, ForkedChildStartsItsOwnPool) {
  // Park some workers first. They do not exist in a child made by fork():
  // a child that handed them jobs would wait forever.
  pipeline::parallel_for(1000, 100, [](std::size_t, std::size_t) {});
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    std::atomic<std::size_t> ran{0};
    pipeline::fork_join(
        pipeline::kMinForkVertices,
        [&ran] { ran.fetch_add(1, std::memory_order_relaxed); },
        [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    pipeline::parallel_for(1000, 100, [&ran](std::size_t b, std::size_t e) {
      ran.fetch_add(e - b, std::memory_order_relaxed);
    });
    ::_exit(ran.load(std::memory_order_relaxed) == 1002 ? 0 : 1);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int status = 0;
  pid_t reaped = 0;
  while ((reaped = ::waitpid(child, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (reaped == 0) {
    ::kill(child, SIGKILL);
    ::waitpid(child, &status, 0);
    FAIL() << "the forked child hung handing jobs to its parent's workers";
  }
  ASSERT_EQ(reaped, child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "wait status " << status;
}

TEST(ForkJoin, ForksOnlyBigBranchesOntoIdleCores) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id left_thread;
  std::thread::id right_thread;
  const auto run = [&](std::size_t left_vertices) {
    pipeline::fork_join(
        left_vertices, [&] { left_thread = std::this_thread::get_id(); },
        [&] { right_thread = std::this_thread::get_id(); });
  };
  run(pipeline::kMinForkVertices - 1);
  EXPECT_EQ(left_thread, caller);
  EXPECT_EQ(right_thread, caller);

  const int held = pipeline::acquire_idle_cores(obs::affinity_cpu_count());
  run(pipeline::kMinForkVertices);
  EXPECT_EQ(left_thread, caller);
  pipeline::release_cores(held);

  if (obs::affinity_cpu_count() > 1) {
    run(pipeline::kMinForkVertices);
    EXPECT_NE(left_thread, caller);
    EXPECT_EQ(right_thread, caller);
  }
}

TEST(ForkJoin, ExceptionsCrossTheJoin) {
  using std::chrono::milliseconds;
  const std::size_t big = pipeline::kMinForkVertices;
  const bool forks = obs::affinity_cpu_count() > 1;

  // A cancellation raised on the helper rethrows here, after the inline
  // branch finished.
  const std::atomic<bool> cancelled{true};
  std::atomic<bool> right_done{false};
  EXPECT_THROW(pipeline::fork_join(
                   big, [&] { poll_cancelled(&cancelled, "left branch"); },
                   [&] {
                     std::this_thread::sleep_for(milliseconds(5));
                     right_done.store(true, std::memory_order_relaxed);
                   }),
               operation_cancelled_error);
  if (forks) {
    EXPECT_TRUE(right_done.load(std::memory_order_relaxed));
  }

  // The inline branch throws while the helper still runs: the join waits
  // for the helper before rethrowing.
  std::atomic<bool> left_done{false};
  EXPECT_THROW(pipeline::fork_join(
                   big,
                   [&] {
                     std::this_thread::sleep_for(milliseconds(5));
                     left_done.store(true, std::memory_order_relaxed);
                   },
                   [] { throw std::runtime_error("right"); }),
               std::runtime_error);
  EXPECT_TRUE(left_done.load(std::memory_order_relaxed));

  // Both throw: the left branch's error wins, as in the serial order.
  try {
    pipeline::fork_join(
        big, [] { throw std::runtime_error("left"); },
        [] { throw std::runtime_error("right"); });
    ADD_FAILURE() << "fork_join swallowed both errors";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "left");
  }

  // Every helper gave its core back.
  const int cpus = obs::affinity_cpu_count();
  const int idle = pipeline::acquire_idle_cores(cpus);
  EXPECT_EQ(idle, cpus - 1);
  pipeline::release_cores(idle);
}

TEST(ForkJoin, ParallelForCoversTheRangeInOrderedChunks) {
  const int cpus = obs::affinity_cpu_count();
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  std::vector<std::thread::id> threads;
  const auto run = [&](std::size_t n, std::size_t min_work) {
    chunks.clear();
    threads.clear();
    pipeline::parallel_for(n, min_work,
                           [&](std::size_t begin, std::size_t end) {
                             const std::lock_guard<std::mutex> lock(mutex);
                             chunks.emplace_back(begin, end);
                             threads.push_back(std::this_thread::get_id());
                           });
    std::sort(chunks.begin(), chunks.end());
  };
  // Under two grains: one inline call.
  run(199, 100);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], std::make_pair(std::size_t{0}, std::size_t{199}));
  EXPECT_EQ(threads[0], caller);
  run(0, 100);
  EXPECT_TRUE(chunks.empty());

  // With the budget exhausted: one inline call, whatever the size.
  const int held = pipeline::acquire_idle_cores(cpus);
  run(100000, 1);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(threads[0], caller);
  pipeline::release_cores(held);

  // With the cores free: contiguous chunks of at least the grain that tile
  // the range, one per claimed core plus the caller's.
  run(1000, 100);
  EXPECT_EQ(chunks.size(), static_cast<std::size_t>(std::min(cpus, 10)));
  std::size_t next = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin, next);
    EXPECT_GE(end - begin, 100u);
    next = end;
  }
  EXPECT_EQ(next, 1000u);
  EXPECT_EQ(std::count(threads.begin(), threads.end(), caller), 1);

  // Every helper gave its core back.
  const int idle = pipeline::acquire_idle_cores(cpus);
  EXPECT_EQ(idle, cpus - 1);
  pipeline::release_cores(idle);
}

TEST(ForkJoin, ParallelForRethrowsAHelperChunksError) {
  const int cpus = obs::affinity_cpu_count();
  const std::thread::id caller = std::this_thread::get_id();
  // The last chunk runs on a helper whenever a core is free; its error
  // reaches the caller after every chunk finished.
  std::atomic<int> finished{0};
  try {
    pipeline::parallel_for(4000, 1000, [&](std::size_t, std::size_t end) {
      if (end == 4000) {
        if (cpus > 1) {
          EXPECT_NE(std::this_thread::get_id(), caller);
        }
        throw std::runtime_error("last chunk");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      finished.fetch_add(1, std::memory_order_relaxed);
    });
    ADD_FAILURE() << "parallel_for swallowed the error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "last chunk");
  }
  if (cpus > 1) {
    EXPECT_GE(finished.load(std::memory_order_relaxed), 1);
  }

  // Several chunks throw: the first chunk's error wins, in chunk order.
  const std::atomic<bool> cancelled{true};
  try {
    pipeline::parallel_for(4000, 1000, [&](std::size_t begin, std::size_t) {
      if (begin == 0) poll_cancelled(&cancelled, "first chunk");
      throw std::runtime_error("later chunk");
    });
    ADD_FAILURE() << "parallel_for swallowed the errors";
  } catch (const operation_cancelled_error&) {
  }

  const int idle = pipeline::acquire_idle_cores(cpus);
  EXPECT_EQ(idle, cpus - 1);
  pipeline::release_cores(idle);
}

TEST(Journal, RoundTripsRecordsBitExactly) {
  const auto corpus = generate_corpus(tiny_corpus());
  StudyOptions options;
  const MatrixStudyRows rows = run_matrix_study(corpus[0], options);
  ASSERT_EQ(rows.size(), 16u);

  const std::string dir = ::testing::TempDir() + "/ordo_journal_roundtrip";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (fs::path(dir) / pipeline::kJournalFilename).string();
  const pipeline::JournalKey key = pipeline::make_journal_key(corpus, options);
  {
    pipeline::JournalWriter writer(path, key);
    writer.append({0, rows});
  }

  const auto records = pipeline::load_journal(path, key);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].index, 0);
  ASSERT_EQ(records[0].rows.size(), rows.size());
  for (const auto& [machine_kernel, row] : rows) {
    expect_identical_row(records[0].rows.at(machine_kernel), row,
                         machine_kernel.first);
  }

  // A journal written for different options must be ignored wholesale.
  StudyOptions other = options;
  other.model.cache_scale *= 2.0;
  const pipeline::JournalKey other_key =
      pipeline::make_journal_key(corpus, other);
  ASSERT_NE(other_key.fingerprint, key.fingerprint);
  EXPECT_TRUE(pipeline::load_journal(path, other_key).empty());
  // As must a missing or truncated-to-garbage file.
  EXPECT_TRUE(pipeline::load_journal(dir + "/missing.jsonl", key).empty());
  fs::remove_all(dir);
}

TEST(Journal, ControlCharacterNameRoundTripsAndTraces) {
  // \x01 has no short JSON escape: the journal and the Chrome trace both
  // write it as \u0001, the journal replays it byte for byte, and the trace
  // stays valid JSON naming the same span.
  auto corpus = generate_corpus(tiny_corpus());
  corpus.resize(1);
  corpus[0].name = "ctl\x01" "name";
  StudyOptions options;
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  const MatrixStudyRows rows = run_matrix_study(corpus[0], options);
  obs::set_tracing_enabled(false);

  const std::string dir = ::testing::TempDir() + "/ordo_journal_control";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path =
      (fs::path(dir) / pipeline::kJournalFilename).string();
  const pipeline::JournalKey key = pipeline::make_journal_key(corpus, options);
  {
    pipeline::JournalWriter writer(path, key);
    writer.append({0, rows});
  }
  EXPECT_NE(slurp(path).find("ctl\\u0001name"), std::string::npos);
  const auto records = pipeline::load_journal(path, key);
  ASSERT_EQ(records.size(), 1u);
  for (const auto& [machine_kernel, row] : records[0].rows) {
    EXPECT_EQ(row.name, corpus[0].name);
  }
  fs::remove_all(dir);

  std::ostringstream trace;
  obs::write_chrome_trace(trace);
  obs::clear_trace();
  const obs::JsonValue doc = obs::parse_json(trace.str());
  int matrix_spans = 0;
  for (const obs::JsonValue& event : doc.at("traceEvents").items) {
    if (event.at("name").as_string() == "study/matrix/" + corpus[0].name) {
      ++matrix_spans;
    }
  }
  EXPECT_EQ(matrix_spans, 1);
}

}  // namespace
}  // namespace ordo
