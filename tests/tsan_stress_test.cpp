// ThreadSanitizer stress suite (src/pipeline + src/obs concurrency).
//
// These tests exist to give TSan (-DORDO_SANITIZE=thread) dense interleaving
// coverage of every concurrent structure in the repo: the worker pool
// (handoffs from several outside threads at once, rounds that reuse parked
// workers), DeadlineWatchdog arm/disarm churn with cancellations landing
// mid-task, partitioner subtrees forked onto idle cores from pool workers,
// row loops of applying orderings split onto idle cores from pool workers,
// SpMV kernel launches nested inside pool jobs, JournalWriter appends from many workers, the obs metrics registry, and
// trace-span recording overlapped with snapshot collection.
// They run (and must pass) in ordinary builds too — they are plain
// functional tests with assertions — but their interleavings only become
// proofs under TSan, which the `tsan` CI job provides. The `Tsan` name
// prefix is what that job's `ctest -R` selects on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus.hpp"
#include "corpus/generators.hpp"
#include "engine/engine.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/status/status.hpp"
#include "pipeline/cancel.hpp"
#include "pipeline/fork_join.hpp"
#include "pipeline/journal.hpp"
#include "reorder/reordering.hpp"
#include "select/select.hpp"
#include "sparse/csr_ops.hpp"
#include "spmv/spmv.hpp"

namespace ordo {
namespace {

namespace fs = std::filesystem;

// Small enough to keep the suite fast, large enough that handoffs, wakeups
// and watchdog scans genuinely overlap.
constexpr int kTasks = 400;
constexpr int kWorkers = 4;

void expect_each_ran_once(const std::vector<std::atomic<int>>& runs) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(std::memory_order_relaxed), 1) << "job " << i;
  }
}

void expect_every_core_back() {
  const int idle = pipeline::acquire_idle_cores(obs::affinity_cpu_count());
  EXPECT_EQ(idle, obs::affinity_cpu_count() - 1);
  pipeline::release_cores(idle);
}

TEST(TsanStressTest, PoolHandoffsFromOutsideThreads) {
  // Three outside threads hand jobs to the one pool at once through all
  // three entry points, racing the parked list, the handoffs, the joins
  // and the budget against each other.
  constexpr int kOutside = 3;
  constexpr std::size_t kPerRound = 20;
  std::vector<std::atomic<int>> runs(kOutside * kTasks);
  const auto run = [&runs](std::size_t i) {
    runs[i].fetch_add(1, std::memory_order_relaxed);
  };
  std::vector<std::thread> outside;
  for (int t = 0; t < kOutside; ++t) {
    outside.emplace_back([&run, t] {
      for (std::size_t first = static_cast<std::size_t>(t) * kTasks;
           first < static_cast<std::size_t>(t + 1) * kTasks;
           first += kPerRound) {
        pipeline::run_tasks(10, 2, [&](std::size_t k) { run(first + k); });
        pipeline::fork_join(
            pipeline::kMinForkVertices, [&] { run(first + 10); },
            [&] { run(first + 11); });
        pipeline::parallel_for(kPerRound - 12, 1,
                               [&](std::size_t begin, std::size_t end) {
                                 for (std::size_t k = begin; k < end; ++k) {
                                   run(first + 12 + k);
                                 }
                               });
      }
    });
  }
  for (std::thread& t : outside) t.join();
  expect_each_ran_once(runs);
  expect_every_core_back();
}

TEST(TsanStressTest, PoolRoundsReuseParkedWorkers) {
  // Each round hands its jobs to the workers the previous round parked,
  // racing a worker's park against the next handoff and the caller's wake.
  constexpr int kRounds = 50;
  constexpr std::size_t kPerRound = 20;
  std::vector<std::atomic<int>> runs(kRounds * kPerRound);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mutex;
  std::set<std::thread::id> workers;
  for (std::size_t round = 0; round < kRounds; ++round) {
    pipeline::run_tasks(kPerRound, kWorkers, [&](std::size_t k) {
      runs[round * kPerRound + k].fetch_add(1, std::memory_order_relaxed);
      if (std::this_thread::get_id() != caller) {
        const std::lock_guard<std::mutex> lock(mutex);
        workers.insert(std::this_thread::get_id());
      }
    });
  }
  expect_each_ran_once(runs);
  // A handoff takes the first parked worker in start order, so the rounds
  // keep reusing the same kWorkers - 1 threads.
  EXPECT_LE(workers.size(), static_cast<std::size_t>(kWorkers - 1));
  expect_every_core_back();
}

TEST(TsanStressTest, WatchdogArmDisarmChurnWithMidTaskCancellation) {
  pipeline::DeadlineWatchdog watchdog;
  std::atomic<int> cancelled{0};
  std::atomic<int> completed{0};
  // A short-deadline task waits for the watchdog's cancel however long the
  // scan thread waits for a core; this shared guard only stops a watchdog
  // that never cancels from hanging the test.
  const auto hang_guard =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  pipeline::run_tasks(kTasks, kWorkers, [&, hang_guard](std::size_t k) {
    const int i = static_cast<int>(k);
    pipeline::CancelToken token;
    // Alternate between deadlines that fire mid-task and deadlines a
    // task outruns, so the watchdog's scan loop races both the polling
    // below and the disarm on scope exit.
    const auto deadline =
        std::chrono::steady_clock::now() +
        (i % 2 == 0 ? std::chrono::microseconds(50)
                    : std::chrono::seconds(60));
    watchdog.arm(&token, deadline);
    // A long-deadline task polls for 20 ms and completes.
    const auto give_up =
        i % 2 == 0 ? hang_guard
                   : std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(20);
    while (!token.cancelled() &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    if (token.cancelled()) {
      cancelled.fetch_add(1, std::memory_order_relaxed);
    } else {
      completed.fetch_add(1, std::memory_order_relaxed);
    }
    watchdog.disarm(&token);
  });
  // Exactly the short-deadline half is cancelled by the watchdog, and no
  // long-deadline task is.
  EXPECT_EQ(cancelled.load(), kTasks / 2);
  EXPECT_EQ(completed.load(), kTasks / 2);
}

TEST(TsanStressTest, PartitionerForksOnPoolWorkersWithMidOrderingCancel) {
  // Two threads (the caller and a worker) leave the other cores idle, so
  // GP, HP and ND running on both fork subtrees at once, while quick tasks
  // finish around them and free cores mid-ordering. Three tasks (one per
  // ordering) run on a larger mesh under a 2 ms deadline, so the watchdog
  // cancels them partway; the cancellation must cross the fork/join back to
  // the task, and every other ordering must match the serial one byte for
  // byte.
  constexpr int kForkWorkers = 2;
  const CsrMatrix mesh = gen_mesh2d(64, 64, 5);
  const CsrMatrix big = gen_mesh2d(160, 160, 5);
  const CsrMatrix small = gen_mesh2d(12, 12, 5);
  ReorderOptions options;
  options.seed = 3;
  const OrderingKind kinds[] = {OrderingKind::kGp, OrderingKind::kHp,
                                OrderingKind::kNd};

  std::vector<Permutation> serial;
  {
    const int held =
        pipeline::acquire_idle_cores(obs::affinity_cpu_count());
    for (OrderingKind kind : kinds) {
      serial.push_back(compute_ordering(mesh, kind, options).row_perm);
    }
    pipeline::release_cores(held);
  }

  [[maybe_unused]] const std::int64_t forks_before =
      obs::counter("partition.forks").value();
  std::atomic<int> mismatches{0};
  std::atomic<int> cancelled{0};
  pipeline::DeadlineWatchdog watchdog;
  pipeline::run_tasks(18, kForkWorkers, [&](std::size_t k) {
    const int i = static_cast<int>(k);
    const OrderingKind kind = kinds[i % 3];
    if (i % 6 == 1) {
      (void)compute_ordering(small, kind, options);
    } else if (i % 6 == 5) {
      pipeline::CancelToken token;
      ReorderOptions cancellable = options;
      cancellable.cancel = token.flag();
      watchdog.arm(&token, std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(2));
      try {
        (void)compute_ordering(big, kinds[i / 6], cancellable);
      } catch (const operation_cancelled_error&) {
        cancelled.fetch_add(1, std::memory_order_relaxed);
      }
      watchdog.disarm(&token);
    } else if (compute_ordering(mesh, kind, options).row_perm !=
               serial[static_cast<std::size_t>(i % 3)]) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cancelled.load(), 3);
#if defined(ORDO_OBS_ENABLED)
  if (obs::affinity_cpu_count() > kForkWorkers + 1) {
    EXPECT_GT(obs::counter("partition.forks").value(), forks_before);
  }
#endif
  // Every helper gave its core back.
  expect_every_core_back();
}

TEST(TsanStressTest, ApplyOrderingRowLoopsOnPoolWorkersWhileCoresFree) {
  // Two threads (the caller and a worker) leave the other cores idle, so
  // the row loops of applying an ordering (the offsets scan, the row
  // gather, Gray's keys and the graph build) run chunks on workers from
  // both at once, while quick tasks finish around them and free cores
  // mid-loop. The mesh is over both parallel grains; every result must
  // match the serial one.
  constexpr int kApplyWorkers = 2;
  const CsrMatrix mesh = gen_mesh2d(370, 370, 9);
  const CsrMatrix small = gen_mesh2d(12, 12, 9);
  const Permutation perm = random_permutation(mesh.num_rows(), 4);
  const auto apply = [&perm](const CsrMatrix& a, int which) {
    switch (which) {
      case 0:
        return permute_symmetric(a, perm);
      case 1:
        return apply_ordering(
            a, compute_ordering(a, OrderingKind::kGray, ReorderOptions{}));
      default: {
        const Graph g = Graph::from_matrix(a);
        return CsrMatrix(
            g.num_vertices(), g.num_vertices(),
            CsrArray<offset_t>(g.adj_ptr().begin(), g.adj_ptr().end()),
            CsrArray<index_t>(g.adj().begin(), g.adj().end()),
            CsrArray<value_t>(g.adj().size(), 1.0));
      }
    }
  };
  std::vector<CsrMatrix> serial;
  {
    const int held =
        pipeline::acquire_idle_cores(obs::affinity_cpu_count());
    for (int which = 0; which < 3; ++which) {
      serial.push_back(apply(mesh, which));
    }
    pipeline::release_cores(held);
  }

  [[maybe_unused]] const std::int64_t helpers_before =
      obs::counter("parallel.helpers").value();
  std::atomic<int> mismatches{0};
  pipeline::run_tasks(18, kApplyWorkers, [&](std::size_t k) {
    const int i = static_cast<int>(k);
    if (i % 3 == 1) {
      (void)apply(small, i % 3);
    } else if (!(apply(mesh, i % 3) ==
                 serial[static_cast<std::size_t>(i % 3)])) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
#if defined(ORDO_OBS_ENABLED)
  if (obs::affinity_cpu_count() > kApplyWorkers + 1) {
    EXPECT_GT(obs::counter("parallel.helpers").value(), helpers_before);
  }
#endif
  // Every helper gave its core back.
  expect_every_core_back();
}

TEST(TsanStressTest, NestedKernelLaunchesOnPoolWorkers) {
  // Four tasks each launch csr_1d, csr_2d and merge 50 times at four
  // threads through shared prepared plans, so every launch hands its
  // chunks out from inside a pool job, as --hw study tasks do, and the
  // launches race each other's handoffs, spins and joins. The power-law
  // matrix has rows split across the nonzero and merge-path ranges; its
  // values and x are small integers, so every summation order is exact and
  // each y must equal spmv_serial's bytes.
  constexpr int kLaunchThreads = 4;
  constexpr int kRounds = 50;
  const CsrMatrix pattern = gen_rmat(9, 8, 0.57, 0.19, 0.19, 11);
  CsrArray<value_t> values(static_cast<std::size_t>(pattern.num_nonzeros()));
  for (std::size_t k = 0; k < values.size(); ++k) {
    values[k] = static_cast<value_t>(1 + k % 7);
  }
  const CsrMatrix a(
      pattern.num_rows(), pattern.num_cols(),
      CsrArray<offset_t>(pattern.row_ptr().begin(), pattern.row_ptr().end()),
      CsrArray<index_t>(pattern.col_idx().begin(), pattern.col_idx().end()),
      std::move(values));
  std::vector<value_t> x(static_cast<std::size_t>(a.num_cols()));
  for (std::size_t j = 0; j < x.size(); ++j) {
    x[j] = static_cast<value_t>(static_cast<int>(j % 5) - 2);
  }
  std::vector<value_t> expected(static_cast<std::size_t>(a.num_rows()));
  spmv_serial(a, x, expected);
  std::vector<std::shared_ptr<const engine::Plan>> plans;
  for (const char* kernel : {"csr_1d", "csr_2d", "merge"}) {
    plans.push_back(engine::prepare_plan(a, kernel, kLaunchThreads));
  }
  std::atomic<int> mismatches{0};
  pipeline::run_tasks(4, 4, [&](std::size_t) {
    std::vector<value_t> y(expected.size());
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& plan : plans) {
        std::fill(y.begin(), y.end(), std::nan(""));
        engine::spmv(*plan, a, x, y);
        if (std::memcmp(y.data(), expected.data(),
                        y.size() * sizeof(value_t)) != 0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  expect_every_core_back();
}

TEST(TsanStressTest, JournalWriterConcurrentAppends) {
  const fs::path dir =
      fs::temp_directory_path() / "ordo_tsan_journal_test";
  fs::create_directories(dir);
  const std::string path = (dir / "journal.jsonl").string();
  const pipeline::JournalKey key{kTasks, 0x5eedu};
  {
    pipeline::JournalWriter writer(path, key);
    pipeline::run_tasks(kTasks, kWorkers, [&writer](std::size_t k) {
      const int i = static_cast<int>(k);
      MeasurementRow row;
      row.group = "tsan";
      // No "m" prefix concatenation: every const char* copy spelling here
      // trips a GCC 12 -Wrestrict false positive in this inlining context,
      // and the journal only needs the name to be unique.
      row.name = std::to_string(i);
      row.orderings.resize(7);
      MatrixStudyRows rows;
      rows[{"machine", SpmvKernel::k1D}] = row;
      writer.append({i, rows});
    });
  }
  // Every line must have landed whole: the loader stops at the first
  // corrupt record, so a torn interleaved write would truncate the replay.
  const std::vector<pipeline::JournalRecord> records =
      pipeline::load_journal(path, key);
  EXPECT_EQ(records.size(), static_cast<std::size_t>(kTasks));
  fs::remove_all(dir);
}

TEST(TsanStressTest, MetricsRegistryConcurrentRegistrationAndDumps) {
  // The registry is process-wide, so an earlier run in this process (say
  // --gtest_repeat) has left its counts behind: check deltas, not totals.
  auto counter_total = [] {
    std::int64_t total = 0;
    for (int k = 0; k < 5; ++k) {
      total += obs::counter("tsan.counter." + std::to_string(k)).value();
    }
    return total;
  };
  const std::int64_t counters_before = counter_total();
  const std::int64_t records_before =
      obs::histogram("tsan.histogram").snapshot().count;
  pipeline::run_tasks(kTasks, kWorkers, [](std::size_t k) {
    const int i = static_cast<int>(k);
    // A handful of shared names (first-toucher registers, everyone else
    // looks up) plus per-task histogram records and gauge stores.
    obs::counter("tsan.counter." + std::to_string(i % 5)).increment();
    obs::gauge("tsan.gauge").set(static_cast<double>(i));
    obs::histogram("tsan.histogram").record(static_cast<double>(i));
    if (i % 32 == 0) {
      // Dumps walk the whole registry while other threads mutate it.
      std::ostringstream sink;
      obs::write_metrics_json(sink);
    }
  });
  EXPECT_EQ(counter_total() - counters_before, kTasks);
  EXPECT_EQ(obs::histogram("tsan.histogram").snapshot().count - records_before,
            kTasks);
}

TEST(TsanStressTest, StatusBoardSnapshotsDuringTaskChurn) {
  // A monitor polls snapshot_json()/progress() from its own thread while
  // pool workers hammer the board's per-slot atomics through the task
  // hooks — the exact reader/writer overlap the lock-light design claims
  // is safe, here made dense enough for TSan to prove it.
  obs::status::begin_run(kTasks, kWorkers, /*resumed=*/0);
  std::atomic<bool> stop{false};
  std::thread sampler([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)obs::status::snapshot_json();
      (void)obs::status::progress();
      (void)obs::status::in_flight_workers();
      std::this_thread::yield();
    }
  });
  pipeline::run_tasks(kTasks, kWorkers, [](std::size_t k) {
    const int i = static_cast<int>(k);
    obs::status::task_started(i, "churn_" + std::to_string(i % 7),
                              /*deadline_seconds=*/i % 2 ? 60.0 : 0.0);
    obs::status::set_phase("reorder");
    obs::status::set_phase("spmv");
    obs::status::task_finished(/*failed=*/i % 9 == 0,
                               /*timed_out=*/false, /*seconds=*/1e-4);
  });
  stop.store(true, std::memory_order_relaxed);
  sampler.join();
  obs::status::end_run();
  const obs::status::ProgressSnapshot p = obs::status::progress();
  EXPECT_EQ(p.completed + p.failed, kTasks);
  EXPECT_EQ(p.in_flight, 0);
}

TEST(TsanStressTest, ConcurrentSelectorDecisionsAndSnapshots) {
  // --auto-order annotates rows from pool workers: every worker runs model
  // inference and records into the select.* instruments while a monitor
  // thread drains snapshot_json(), which reads the same registry. The
  // registry is process-wide, so an earlier run in this process (say
  // --gtest_repeat) has left its counts behind: check deltas, not totals.
  const CorpusEntry entry = generate_named("333SP", 0.03);
  const features::SelectorFeatures f =
      features::compute_selector_features(entry.matrix, 72);
  auto picks_total = [] {
    std::int64_t total = 0;
    for (const OrderingKind kind : study_orderings()) {
      total += obs::counter("select.picks." + ordering_name(kind)).value();
    }
    return total;
  };
  const std::int64_t decisions_before =
      obs::counter("select.decisions").value();
  const std::int64_t picks_before = picks_total();
  const std::int64_t regrets_before =
      obs::histogram("select.regret").snapshot().count;
  std::atomic<bool> stop{false};
  std::thread sampler([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)obs::status::snapshot_json();
      std::this_thread::yield();
    }
  });
  pipeline::run_tasks(kTasks, kWorkers, [&entry, &f](std::size_t k) {
    const int i = static_cast<int>(k);
    select::SelectorOptions options;
    options.spmv_budget = 1.0 + static_cast<double>(i % 5) * 5000.0;
    const select::Decision decision = select::select_ordering(
        f, /*baseline_seconds=*/1e-5, entry.matrix.num_rows(),
        entry.matrix.num_nonzeros(), i % 2 ? "csr_1d" : "csr_2d",
        options);
    select::record_decision(decision.pick, /*oracle=*/i % 7,
                            /*regret=*/1e-3 * static_cast<double>(i % 11),
                            decision.predicted_amortize_calls);
  });
  stop.store(true, std::memory_order_relaxed);
  sampler.join();
#if defined(ORDO_OBS_ENABLED)
  EXPECT_EQ(obs::counter("select.decisions").value() - decisions_before,
            kTasks);
  EXPECT_EQ(picks_total() - picks_before, kTasks);
  EXPECT_EQ(obs::histogram("select.regret").snapshot().count -
                regrets_before,
            kTasks);
#else
  (void)decisions_before;
  (void)picks_before;
  (void)regrets_before;
#endif
}

TEST(TsanStressTest, TraceSpansOverlappedWithCollection) {
  obs::set_tracing_enabled(true);
  obs::clear_trace();
  std::atomic<bool> stop{false};
  // Collector thread snapshots and clears while workers record: the exact
  // interleaving TSan found racy in the original per-thread buffers.
  std::thread collector([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)obs::collect_trace();
      obs::clear_trace();
      std::this_thread::yield();
    }
  });
  pipeline::run_tasks(kTasks, kWorkers, [](std::size_t k) {
    const int i = static_cast<int>(k);
    obs::Span outer("tsan/outer/" + std::to_string(i % 7));
    obs::Span inner("tsan/inner");
  });
  stop.store(true, std::memory_order_relaxed);
  collector.join();
  // Tasks done, collector stopped: everything still buffered is visible.
  obs::set_tracing_enabled(false);
  obs::clear_trace();
}

}  // namespace
}  // namespace ordo
