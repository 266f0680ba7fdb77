// Tests for obs::hw — the perf_event counter layer — and the bench report
// it feeds. Everything here must pass with perf unavailable (containers,
// perf_event_paranoid >= 2, non-Linux): the session is never enabled unless
// a test enables it, and no assertion depends on hardware counters actually
// opening — the degradation path IS the contract under test.
#include "obs/hw/hw_counters.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "obs/hw/membw.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sparse/types.hpp"

namespace ordo::obs::hw {
namespace {

// --- multiplex scaling math on synthetic samples ---------------------------

RawSample sample(std::uint64_t value, std::uint64_t enabled_ns,
                 std::uint64_t running_ns) {
  RawSample s;
  s.value = value;
  s.time_enabled_ns = enabled_ns;
  s.time_running_ns = running_ns;
  return s;
}

TEST(ScaleWindow, UnmultiplexedWindowIsRawDelta) {
  const WindowDelta d =
      scale_window(sample(1000, 5'000, 5'000), sample(4000, 9'000, 9'000));
  EXPECT_TRUE(d.ran);
  EXPECT_FALSE(d.multiplexed);
  EXPECT_DOUBLE_EQ(d.value, 3000.0);
  EXPECT_DOUBLE_EQ(d.scale, 1.0);
}

TEST(ScaleWindow, MultiplexedWindowExtrapolatesByEnabledOverRunning) {
  // Enabled for 8000ns of the window but scheduled on the PMU for only
  // 2000ns: the observed delta must be scaled by 4.
  const WindowDelta d =
      scale_window(sample(500, 1'000, 1'000), sample(1500, 9'000, 3'000));
  EXPECT_TRUE(d.ran);
  EXPECT_TRUE(d.multiplexed);
  EXPECT_DOUBLE_EQ(d.scale, 4.0);
  EXPECT_DOUBLE_EQ(d.value, 4000.0);
}

TEST(ScaleWindow, CounterThatNeverRanIsAbsentNotZero) {
  const WindowDelta d =
      scale_window(sample(700, 1'000, 1'000), sample(700, 9'000, 1'000));
  EXPECT_FALSE(d.ran);  // Δrunning == 0: no information in this window
}

// --- derived metrics on synthetic reading sets -----------------------------

CounterSet synthetic_set(std::vector<std::pair<CounterId, double>> values) {
  CounterSet set;
  set.available = !values.empty();
  for (const auto& [id, value] : values) {
    Reading r;
    r.id = id;
    r.value = value;
    set.readings.push_back(r);
  }
  return set;
}

TEST(DeriveMetrics, FullQuartetYieldsIpcAndMissRate) {
  const CounterSet set = synthetic_set({
      {CounterId::kCycles, 2.0e9},
      {CounterId::kInstructions, 3.0e9},
      {CounterId::kCacheReferences, 1.0e8},
      {CounterId::kCacheMisses, 2.5e7},
  });
  const DerivedMetrics m = derive_metrics(set, 1.0);
  ASSERT_TRUE(m.valid);
  EXPECT_DOUBLE_EQ(m.ipc, 1.5);
  EXPECT_DOUBLE_EQ(m.llc_miss_rate, 0.25);
  EXPECT_DOUBLE_EQ(m.est_bytes,
                   static_cast<double>(cache_line_bytes()) * 2.5e7);
  EXPECT_DOUBLE_EQ(m.gbps, m.est_bytes / 1e9);
}

TEST(DeriveMetrics, PrefersExplicitLlcLoadStorePairForTraffic) {
  const CounterSet set = synthetic_set({
      {CounterId::kCycles, 1.0e9},
      {CounterId::kInstructions, 1.0e9},
      {CounterId::kCacheReferences, 1.0e8},
      {CounterId::kCacheMisses, 4.0e7},
      {CounterId::kLlcLoadMisses, 1.0e7},
      {CounterId::kLlcStoreMisses, 5.0e6},
  });
  const DerivedMetrics m = derive_metrics(set, 2.0);
  ASSERT_TRUE(m.valid);
  EXPECT_DOUBLE_EQ(m.est_bytes,
                   static_cast<double>(cache_line_bytes()) * 1.5e7);
  EXPECT_DOUBLE_EQ(m.gbps, m.est_bytes / 2.0 / 1e9);
}

TEST(DeriveMetrics, SoftwareOnlySetIsNeverValid) {
  const CounterSet set = synthetic_set({
      {CounterId::kTaskClockNs, 1.0e9},
      {CounterId::kPageFaults, 100.0},
      {CounterId::kContextSwitches, 5.0},
  });
  EXPECT_FALSE(derive_metrics(set, 1.0).valid);
}

TEST(DeriveMetrics, EmptySetAndZeroSecondsAreInvalidNotGarbage) {
  EXPECT_FALSE(derive_metrics(CounterSet{}, 1.0).valid);
  const CounterSet set = synthetic_set({
      {CounterId::kCycles, 1.0e9},
      {CounterId::kInstructions, 1.0e9},
      {CounterId::kCacheReferences, 1.0e8},
      {CounterId::kCacheMisses, 1.0e7},
  });
  EXPECT_FALSE(derive_metrics(set, 0.0).valid);
}

TEST(CounterNames, AreStableAndDistinct) {
  std::vector<std::string> names;
  for (int i = 0; i < kNumCounterIds; ++i) {
    names.push_back(counter_name(static_cast<CounterId>(i)));
  }
  EXPECT_EQ(names.front(), "cycles");
  for (std::size_t a = 0; a < names.size(); ++a) {
    EXPECT_FALSE(names[a].empty());
    for (std::size_t b = a + 1; b < names.size(); ++b) {
      EXPECT_NE(names[a], names[b]);
    }
  }
}

// --- the null backend (what this CI host actually exercises) ---------------

TEST(NullBackend, DisabledSessionScopesAreNoOps) {
  ASSERT_FALSE(enabled()) << "tests must run without ORDO_HW";
  EXPECT_FALSE(available());
  EXPECT_EQ(config_fingerprint(), "off");
  CounterScope scope("test.region");
  const CounterSet& set = scope.stop();
  EXPECT_FALSE(set.available);
  EXPECT_TRUE(set.readings.empty());
}

TEST(NullBackend, ScopesNestAndStopIsIdempotent) {
  CounterScope outer("test.outer");
  {
    CounterScope inner("test.inner");
    CounterScope innermost;  // unnamed: records no metrics
    EXPECT_FALSE(innermost.stop().available);
    EXPECT_FALSE(inner.stop().available);
  }
  const CounterSet& first = outer.stop();
  const CounterSet& second = outer.stop();
  EXPECT_EQ(&first, &second);  // same result object, no double close
  EXPECT_FALSE(second.available);
}

TEST(NullBackend, SessionTotalsReportAbsent) {
  EXPECT_FALSE(session_totals().available);
}

TEST(NullBackend, PeakBandwidthHonoursEnvOverride) {
  // No measurement has run in this process and ORDO_PEAK_GBPS is unset.
  EXPECT_EQ(measured_peak_gbps(), 0.0);
}

TEST(NullBackend, PeakOverrideIsParsedOnceAtInit) {
  // The variable is read by init_from_env, not by each measured_peak_gbps()
  // call: a later value, even a malformed one, waits for the next init.
  setenv("ORDO_PEAK_GBPS", "12.5", 1);
  EXPECT_EQ(measured_peak_gbps(), 0.0);
  init_from_env();
  EXPECT_DOUBLE_EQ(measured_peak_gbps(), 12.5);
  setenv("ORDO_PEAK_GBPS", "fast", 1);
  EXPECT_DOUBLE_EQ(measured_peak_gbps(), 12.5);
  EXPECT_THROW(init_from_env(), invalid_argument_error);
  // 0 keeps the measured value, as if the variable were unset.
  setenv("ORDO_PEAK_GBPS", "0", 1);
  init_from_env();
  EXPECT_EQ(measured_peak_gbps(), 0.0);
  unsetenv("ORDO_PEAK_GBPS");
  init_from_env();
  EXPECT_EQ(measured_peak_gbps(), 0.0);
}

TEST(MembwProbe, RunsOnThePoolAndFeedsThePeakGauge) {
  // A tiny two-thread probe: its slices run through pipeline::run_tasks,
  // and its peak reaches measured_peak_gbps() only through the gauge.
  MembwOptions options;
  options.array_bytes = std::size_t{1} << 16;
  options.reps = 1;
  options.threads = 2;
  const MembwResult result = measure_membw(options);
  EXPECT_EQ(result.threads, 2);
  ASSERT_EQ(result.kernels.size(), 4u);
  EXPECT_GT(result.peak_gbps, 0.0);
  EXPECT_DOUBLE_EQ(gauge("hw.peak_gbps").value(), result.peak_gbps);
  EXPECT_DOUBLE_EQ(measured_peak_gbps(), result.peak_gbps);
}

}  // namespace
}  // namespace ordo::obs::hw

namespace ordo::obs {
namespace {

// --- bench report round-trip ------------------------------------------------

TEST(BenchReport, MedianAndIqrFillFromReps) {
  BenchCase c;
  c.name = "case";
  c.rep_seconds = {3.0, 1.0, 2.0, 5.0, 4.0};
  // median/iqr computed the same way add_case fills them: sorted
  // {1,2,3,4,5} has median 3, q1 = 2, q3 = 4.
  EXPECT_DOUBLE_EQ(median_of(c.rep_seconds), 3.0);
  EXPECT_DOUBLE_EQ(iqr_of(c.rep_seconds), 2.0);
}

TEST(BenchReport, JsonRoundTripsThroughParser) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ordo_bench_rt.json").string();

  BenchCase timed;
  timed.name = "spmv_mesh";
  timed.rep_seconds = {0.011, 0.010, 0.012, 0.010, 0.011};
  timed.counters.emplace_back("cycles", 1.5e9);
  timed.counters.emplace_back("instructions", 2.5e9);
  bench_report().add_case(timed);

  BenchCase info;
  info.name = "membw_peak";
  info.counters.emplace_back("peak_gbps", 42.5);
  bench_report().add_case(info);

  set_bench_report_name("hw_counters_test");
  bench_report().write_json_file(path);

  const ParsedBenchReport parsed = parse_bench_report_file(path);
  std::filesystem::remove(path);

  EXPECT_EQ(parsed.schema_version, kBenchReportSchemaVersion);
  EXPECT_EQ(parsed.name, "hw_counters_test");
  EXPECT_GE(parsed.host.logical_cpus, 1);
  EXPECT_FALSE(parsed.host.cpu.empty());
  EXPECT_FALSE(parsed.host.hw_backend.empty());

  ASSERT_GE(parsed.cases.size(), 2u);
  const BenchCase& timed_back = parsed.cases[0];
  EXPECT_EQ(timed_back.name, "spmv_mesh");
  ASSERT_EQ(timed_back.rep_seconds.size(), 5u);
  EXPECT_DOUBLE_EQ(timed_back.median_seconds, 0.011);
  ASSERT_EQ(timed_back.counters.size(), 2u);
  EXPECT_EQ(timed_back.counters[0].first, "cycles");
  EXPECT_DOUBLE_EQ(timed_back.counters[0].second, 1.5e9);

  const BenchCase& info_back = parsed.cases[1];
  EXPECT_EQ(info_back.name, "membw_peak");
  EXPECT_DOUBLE_EQ(info_back.median_seconds, 0.0);  // no reps: stays unset
  ASSERT_EQ(info_back.counters.size(), 1u);
  EXPECT_EQ(info_back.counters[0].first, "peak_gbps");
  EXPECT_DOUBLE_EQ(info_back.counters[0].second, 42.5);
}

}  // namespace
}  // namespace ordo::obs

namespace ordo {
namespace {

// --- result-file hw columns -------------------------------------------------

MeasurementRow hw_row(bool with_hw) {
  MeasurementRow row;
  row.group = "synthetic";
  row.name = "mesh";
  row.rows = 100;
  row.cols = 100;
  row.nnz = 500;
  row.threads = 8;
  for (std::size_t k = 0; k < study_orderings().size(); ++k) {
    OrderingMeasurement m;
    m.min_thread_nnz = 10;
    m.max_thread_nnz = 90;
    m.mean_thread_nnz = 62.5;
    m.imbalance = 1.44;
    m.seconds = 1e-4 * static_cast<double>(k + 1);
    m.gflops_max = 2.0;
    m.gflops_mean = 1.9;
    m.bandwidth = 37;
    m.profile = 1234;
    m.off_diagonal_nnz = 55;
    if (with_hw) {
      m.has_hw = k % 2 == 0;  // mixed: some orderings measured, some absent
      m.hw_ipc = 1.25 + static_cast<double>(k);
      m.hw_llc_miss_rate = 0.125;
      m.hw_gbps = 10.5;
      m.hw_seconds = 2e-4;
    }
    row.orderings.push_back(m);
  }
  return row;
}

TEST(ResultsFileHw, HwColumnsRoundTripAndHeaderIsSniffed) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ordo_hw_results.txt").string();
  write_results_file(path, {hw_row(true)});

  const std::vector<MeasurementRow> rows = read_results_file(path);
  std::filesystem::remove(path);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].orderings.size(), study_orderings().size());
  for (std::size_t k = 0; k < rows[0].orderings.size(); ++k) {
    const OrderingMeasurement& m = rows[0].orderings[k];
    EXPECT_EQ(m.has_hw, k % 2 == 0);
    if (m.has_hw) {
      EXPECT_DOUBLE_EQ(m.hw_ipc, 1.25 + static_cast<double>(k));
      EXPECT_DOUBLE_EQ(m.hw_llc_miss_rate, 0.125);
      EXPECT_DOUBLE_EQ(m.hw_gbps, 10.5);
    }
  }
}

TEST(ResultsFileHw, HwFreeRowsKeepTheLegacyLayout) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ordo_legacy_results.txt")
          .string();
  write_results_file(path, {hw_row(false)});

  {
    std::ifstream in(path);
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header.find(":hw_valid"), std::string::npos)
        << "hw-less rows must keep the artifact's original columns";
  }
  const std::vector<MeasurementRow> rows = read_results_file(path);
  std::filesystem::remove(path);
  ASSERT_EQ(rows.size(), 1u);
  for (const OrderingMeasurement& m : rows[0].orderings) {
    EXPECT_FALSE(m.has_hw);
  }
}

}  // namespace
}  // namespace ordo
