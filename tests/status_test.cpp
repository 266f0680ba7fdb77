// Live-telemetry suite: the StatusBoard's snapshots and the heartbeat
// writer (src/obs/status/).
//
// The board is a process-wide singleton, so each test drives a fresh
// begin_run/end_run cycle (begin_run resets every count) and tears its
// heartbeat down with status::stop().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus.hpp"
#include "engine/engine.hpp"
#include "obs/hw/hw_counters.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/status/heartbeat.hpp"
#include "obs/status/status.hpp"
#include "pipeline/fork_join.hpp"
#include "select/select.hpp"
#include "sparse/types.hpp"

namespace ordo {
namespace {

namespace fs = std::filesystem;
namespace status = obs::status;

// Runs `count` synthetic study tasks on `workers` threads, as the study
// does, so the hooks fire from pool workers (slot claiming is per-thread).
void run_synthetic_tasks(int count, int workers, int fail_every = 0) {
  pipeline::run_tasks(static_cast<std::size_t>(count), workers,
                      [fail_every](std::size_t k) {
                        const int i = static_cast<int>(k);
                        status::task_started(
                            i, "matrix_" + std::to_string(i),
                            /*deadline_seconds=*/i % 2 == 0 ? 60.0 : 0.0);
                        status::set_phase("reorder");
                        status::set_phase("spmv");
                        const bool fail = fail_every > 0 && i % fail_every == 0;
                        status::task_finished(fail, /*timed_out=*/false,
                                              /*seconds=*/0.01);
                      });
}

TEST(StatusTest, SnapshotJsonParsesAndCarriesSchema) {
  status::begin_run(/*total=*/4, /*workers=*/2, /*resumed=*/1);
  run_synthetic_tasks(/*count=*/2, /*workers=*/2);

  const obs::JsonValue doc = obs::parse_json(status::snapshot_json());
  EXPECT_EQ(doc.at("schema_version").as_int(), status::kStatusSchemaVersion);
  EXPECT_GT(doc.at("pid").as_int(), 0);
  EXPECT_GE(doc.at("uptime_seconds").as_double(), 0.0);

  const obs::JsonValue& run = doc.at("run");
  EXPECT_TRUE(run.at("running").boolean);
  EXPECT_EQ(run.at("total").as_int(), 4);
  EXPECT_EQ(run.at("completed").as_int(), 2);
  EXPECT_EQ(run.at("resumed").as_int(), 1);
  EXPECT_NEAR(run.at("fraction").as_double(), 3.0 / 4.0, 1e-12);

  // The metrics section always has its three groups, even when empty.
  const obs::JsonValue& metrics = doc.at("metrics");
  EXPECT_NE(metrics.find("counters"), nullptr);
  EXPECT_NE(metrics.find("gauges"), nullptr);
  EXPECT_NE(metrics.find("histograms"), nullptr);
  status::end_run();
}

TEST(StatusTest, SubsystemsPublishOnlyThroughMetrics) {
  // The plan cache and the selector keep their numbers in the metrics
  // registry: after a plan lookup and a recorded decision the snapshot's
  // top-level keys are still only the board's own.
  const CorpusEntry entry = generate_named("333SP", 0.03);
  (void)engine::prepare_plan(entry.matrix, "csr_1d", /*threads=*/2);
  select::record_decision(/*pick=*/1, /*oracle=*/1, /*regret=*/0.0,
                          /*amortize_calls=*/50.0);

  const obs::JsonValue doc = obs::parse_json(status::snapshot_json());
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.members) keys.push_back(key);
  std::vector<std::string> expected = {"schema_version", "pid",
                                       "uptime_seconds", "run",
                                       "workers",        "metrics"};
  if (obs::hw::enabled()) expected.push_back("hw");
  EXPECT_EQ(keys, expected);
#if defined(ORDO_OBS_ENABLED)
  const obs::JsonValue& metrics = doc.at("metrics");
  EXPECT_NE(metrics.at("counters").find("engine.plan_cache.misses"),
            nullptr);
  EXPECT_NE(metrics.at("gauges").find("engine.plan_cache.size"), nullptr);
  EXPECT_NE(metrics.at("counters").find("select.decisions"), nullptr);
  EXPECT_NE(metrics.at("histograms").find("select.regret"), nullptr);
#endif
}

TEST(StatusTest, EtaAbsentNotZeroBeforeFirstCompletion) {
  status::begin_run(/*total=*/8, /*workers=*/2, /*resumed=*/0);
  const status::ProgressSnapshot before = status::progress();
  EXPECT_FALSE(before.has_eta);
  const obs::JsonValue doc = obs::parse_json(status::snapshot_json());
  // Absent, not 0: a monitor must not render "eta 0s" on a fresh run.
  EXPECT_EQ(doc.at("run").find("eta_seconds"), nullptr);

  run_synthetic_tasks(/*count=*/1, /*workers=*/1);
  const status::ProgressSnapshot after = status::progress();
  EXPECT_TRUE(after.has_eta);
  EXPECT_GT(after.eta_seconds, 0.0);
  EXPECT_NE(obs::parse_json(status::snapshot_json())
                .at("run")
                .find("eta_seconds"),
            nullptr);
  status::end_run();
}

TEST(StatusTest, RateAbsentNotZeroBeforeFirstCompletion) {
  status::begin_run(/*total=*/8, /*workers=*/2, /*resumed=*/0);
  // The pace field obeys the same rule as the ETA: absent until the EWMA
  // has a sample, never a misleading zero.
  EXPECT_FALSE(status::progress().has_rate);
  EXPECT_EQ(obs::parse_json(status::snapshot_json())
                .at("run")
                .find("rate_tasks_per_second"),
            nullptr);

  run_synthetic_tasks(/*count=*/1, /*workers=*/1);
  const status::ProgressSnapshot after = status::progress();
  EXPECT_TRUE(after.has_rate);
  EXPECT_GT(after.rate_tasks_per_second, 0.0);
  EXPECT_NE(obs::parse_json(status::snapshot_json())
                .at("run")
                .find("rate_tasks_per_second"),
            nullptr);
  status::end_run();
}

TEST(StatusTest, SnapshotCarriesBucketCompleteLatencySection) {
  // Latencies are registry histograms: the snapshot's metrics.histograms
  // group carries them, and no separate "latency" section exists.
  status::begin_run(/*total=*/1, /*workers=*/1, /*resumed=*/0);
  obs::histogram("test.status.latency").record(5e-6);

  const obs::JsonValue doc = obs::parse_json(status::snapshot_json());
  EXPECT_EQ(doc.find("latency"), nullptr);
  const obs::JsonValue* entry =
      doc.at("metrics").at("histograms").find("test.status.latency");
  ASSERT_NE(entry, nullptr);
  EXPECT_GE(entry->at("count").as_int(), 1);
  EXPECT_NE(entry->find("p99"), nullptr);
  // The snapshot carries the bucket detail, so a reader can recompute any
  // quantile, not just the emitted ones.
  ASSERT_NE(entry->find("buckets"), nullptr);
  std::int64_t in_buckets = 0;
  for (const obs::JsonValue& pair : entry->at("buckets").items) {
    in_buckets += pair.items.at(1).as_int();
  }
  EXPECT_EQ(in_buckets, entry->at("count").as_int());
  status::end_run();
}

TEST(StatusTest, ProgressMonotonicAcrossConcurrentRun) {
  constexpr int kTasks = 8;
  status::begin_run(kTasks, /*workers=*/4, /*resumed=*/0);

  // Sample from a separate thread for the whole run: the done count must
  // never step backwards, and every observation stays within [0, total].
  std::atomic<bool> stop{false};
  std::atomic<bool> monotonic{true};
  std::thread sampler([&stop, &monotonic] {
    std::int64_t last_done = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const status::ProgressSnapshot p = status::progress();
      const std::int64_t done = p.completed + p.failed;
      if (done < last_done || done > p.total) {
        monotonic.store(false, std::memory_order_relaxed);
      }
      last_done = done;
      std::this_thread::yield();
    }
  });

  run_synthetic_tasks(kTasks, /*workers=*/4, /*fail_every=*/3);
  stop.store(true, std::memory_order_relaxed);
  sampler.join();
  status::end_run();

  EXPECT_TRUE(monotonic.load());
  const status::ProgressSnapshot final_p = status::progress();
  EXPECT_EQ(final_p.completed + final_p.failed, kTasks);
  EXPECT_GT(final_p.failed, 0);  // fail_every=3 hit indices 0, 3, 6
  EXPECT_EQ(final_p.in_flight, 0);
  EXPECT_FALSE(final_p.running);
}

TEST(StatusTest, InFlightWorkersCarryMatrixPhaseAndDeadline) {
  status::begin_run(/*total=*/2, /*workers=*/2, /*resumed=*/0);
  std::atomic<bool> ready{false};
  std::atomic<bool> release{false};
  std::vector<status::WorkerSnapshot> workers;
  // Task 0 stalls mid-phase on one thread while task 1, on the other,
  // samples the board.
  pipeline::run_tasks(2, 2, [&](std::size_t k) {
    if (k == 0) {
      status::task_started(7, "stalled_matrix", /*deadline_seconds=*/120.0);
      status::set_phase("reorder");
      ready.store(true);
      while (!release.load()) std::this_thread::yield();
      status::task_finished(false, false, 0.01);
      return;
    }
    while (!ready.load()) std::this_thread::yield();
    workers = status::in_flight_workers();
    release.store(true);
  });

  ASSERT_EQ(workers.size(), 1u);
  EXPECT_EQ(workers[0].task_index, 7);
  EXPECT_EQ(workers[0].matrix, "stalled_matrix");
  EXPECT_EQ(workers[0].phase, "reorder");
  EXPECT_TRUE(workers[0].has_deadline);
  EXPECT_GT(workers[0].deadline_margin_seconds, 0.0);

  status::end_run();
  EXPECT_TRUE(status::in_flight_workers().empty());
}

// The whole text of the heartbeat file, empty when it cannot be read.
std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(StatusTest, HeartbeatFileIsValidJsonAndSurvivesStop) {
  const fs::path dir = fs::temp_directory_path() / "ordo_status_test";
  fs::create_directories(dir);
  const std::string path = (dir / "ordo_status.json").string();

  status::begin_run(/*total=*/2, /*workers=*/1, /*resumed=*/0);
  status::start_heartbeat(path, /*interval_seconds=*/0.1);
  EXPECT_TRUE(status::consumers_active());
  run_synthetic_tasks(/*count=*/2, /*workers=*/1);

  // Read back while the run is live: the writer's next tick must publish
  // the two completions as a complete schema-stamped document. The file is
  // renamed into place, so every read parses.
  std::int64_t live_completed = -1;
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
  while (live_completed != 2 && std::chrono::steady_clock::now() < give_up) {
    const obs::JsonValue live = obs::parse_json(read_file(path));
    EXPECT_EQ(live.at("schema_version").as_int(),
              status::kStatusSchemaVersion);
    EXPECT_TRUE(live.at("run").at("running").boolean);
    live_completed = live.at("run").at("completed").as_int();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(live_completed, 2);

  status::end_run();
  status::stop();  // writes one final snapshot on the way out
  EXPECT_FALSE(status::consumers_active());

  const obs::JsonValue doc = obs::parse_json(read_file(path));
  EXPECT_EQ(doc.at("schema_version").as_int(), status::kStatusSchemaVersion);
  // The final snapshot postdates end_run: the parked run must read idle
  // with its counts intact.
  EXPECT_FALSE(doc.at("run").at("running").boolean);
  EXPECT_EQ(doc.at("run").at("completed").as_int(), 2);
  fs::remove_all(dir);
}

TEST(StatusTest, HeartbeatWriterRefusesLiveForeignFile) {
  const fs::path dir = fs::temp_directory_path() / "ordo_status_foreign";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "ordo_status.json").string();

  // pid 1 is always alive and never us: the writer must refuse to clobber
  // its (purported) live heartbeat instead of tearing snapshots.
  { std::ofstream(path) << "{\"pid\": 1}\n"; }
  EXPECT_THROW(status::HeartbeatWriter(path, 10.0), invalid_argument_error);

  // A dead owner's leftover is overwritten normally (pid far beyond
  // pid_max never names a live process), as is our own file.
  { std::ofstream(path) << "{\"pid\": 999999999}\n"; }
  {
    status::HeartbeatWriter writer(path, 10.0);
    writer.stop();
  }
  { status::HeartbeatWriter writer(path, 10.0); }  // own pid now
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ordo
