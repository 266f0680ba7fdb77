// Integration tests for the experiment pipeline: full-study execution on a
// tiny corpus, result-file round-trips, and the cache layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "core/experiment.hpp"
#include "obs/hw/hw_counters.hpp"
#include "obs/hw/membw.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "obs/status/status.hpp"

namespace ordo {
namespace {

CorpusOptions tiny_corpus() {
  CorpusOptions options;
  options.count = 4;
  options.scale = 0.02;
  return options;
}

TEST(FullStudy, ProducesRowsForEveryMachineAndKernel) {
  const auto corpus = generate_corpus(tiny_corpus());
  StudyOptions options;
  const StudyResults results = run_full_study(corpus, options);
  EXPECT_EQ(results.size(), 16u);  // 8 machines x 2 kernels
  for (const auto& [key, rows] : results) {
    EXPECT_EQ(rows.size(), corpus.size()) << key.first;
    for (const MeasurementRow& row : rows) {
      ASSERT_EQ(row.orderings.size(), 7u);
      for (const OrderingMeasurement& m : row.orderings) {
        EXPECT_GT(m.gflops_max, 0.0);
        EXPECT_GE(m.imbalance, 0.99);
        EXPECT_GT(m.seconds, 0.0);
      }
      EXPECT_EQ(row.threads, architecture_by_name(key.first).cores);
    }
  }
}

TEST(FullStudy, RowsMatchTheModelOfEachMachine) {
  // The study prices each core-count group in one pass; every machine's
  // row must still read what the model gives that machine alone.
  const auto corpus = generate_corpus(tiny_corpus());
  const CorpusEntry& entry = corpus.front();
  StudyOptions options;
  const MatrixStudyRows rows = run_matrix_study(entry, options);
  const std::vector<OrderingKind> kinds = study_orderings();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    if (kinds[k] == OrderingKind::kGp) continue;  // one ordering per count
    const Ordering ordering =
        compute_ordering(entry.matrix, kinds[k], options.reorder);
    const CsrMatrix reordered = apply_ordering(entry.matrix, ordering);
    const SpmvModel model(reordered, options.model);
    for (const auto& [key, row] : rows) {
      const Architecture& arch = architecture_by_name(key.first);
      EXPECT_EQ(row.orderings[k].seconds,
                model.estimate(key.second, arch).seconds)
          << key.first << " " << ordering_name(kinds[k]);
    }
  }
}

TEST(FullStudy, TwoDImbalanceIsAlwaysOne) {
  const auto corpus = generate_corpus(tiny_corpus());
  StudyOptions options;
  const StudyResults results = run_full_study(corpus, options);
  for (const auto& [key, rows] : results) {
    if (key.second != SpmvKernel::k2D) continue;
    for (const MeasurementRow& row : rows) {
      for (const OrderingMeasurement& m : row.orderings) {
        // The even nonzero split differs by at most one nonzero per thread,
        // so max <= mean + 1 exactly (the paper's footnote 1: imbalance is
        // always 1, up to this integer granularity).
        EXPECT_LE(static_cast<double>(m.max_thread_nnz),
                  m.mean_thread_nnz + 1.0)
            << row.name;
      }
    }
  }
}

#if defined(ORDO_OBS_ENABLED)
TEST(FullStudy, PopulatesObservabilityMetrics) {
  obs::reset_metrics();
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  const auto corpus = generate_corpus(tiny_corpus());
  StudyOptions options;
  const StudyResults results = run_full_study(corpus, options);
  obs::set_tracing_enabled(false);
  ASSERT_EQ(results.size(), 16u);

  // Exactly one "model/<machine>/<kernel>" span per study row, and no other
  // "model/" span but the reuse profiles: benchmarks count model
  // evaluations by these spans.
  std::int64_t row_spans = 0;
  for (const obs::SpanEvent& event : obs::collect_trace()) {
    if (event.name.rfind("model/", 0) != 0 ||
        event.name == "model/reuse_profile") {
      continue;
    }
    ++row_spans;
    EXPECT_EQ(std::count(event.name.begin(), event.name.end(), '/'), 2)
        << event.name;
  }
  obs::clear_trace();
  EXPECT_EQ(row_spans, static_cast<std::int64_t>(corpus.size()) * 8 * 2);

  // One model evaluation per (matrix, machine, kernel, ordering), from one
  // pass per (matrix, kernel, ordering, distinct core count): the eight
  // machines have six core counts.
  EXPECT_EQ(obs::counter("model.evaluations").value(),
            static_cast<std::int64_t>(corpus.size()) * 8 * 2 * 7);
  EXPECT_EQ(obs::counter("model.plan_passes").value(),
            static_cast<std::int64_t>(corpus.size()) * 2 * 7 * 6);
  EXPECT_EQ(obs::counter("study.matrices").value(),
            static_cast<std::int64_t>(corpus.size()));

  // Per-ordering wall time (observed) and modeled per-thread work must be
  // present for every ordering of the study.
  for (OrderingKind kind : study_orderings()) {
    const std::string name = ordering_name(kind);
    EXPECT_TRUE(obs::has_metric("study." + name + ".seconds")) << name;
    EXPECT_TRUE(obs::has_metric("study." + name + ".max_thread_nnz")) << name;
    EXPECT_TRUE(obs::has_metric("study." + name + ".imbalance")) << name;
    // GP's six core counts come from one shared call per matrix, timed
    // apart from the cold single-count reorder.GP.seconds.
    if (kind == OrderingKind::kGp) {
      EXPECT_TRUE(obs::has_metric("reorder.GP.shared_seconds"));
      EXPECT_EQ(obs::histogram("reorder.GP.shared_seconds").snapshot().count,
                static_cast<std::int64_t>(corpus.size()));
    } else if (kind != OrderingKind::kOriginal) {
      EXPECT_TRUE(obs::has_metric("reorder." + name + ".seconds")) << name;
      EXPECT_GT(obs::histogram("reorder." + name + ".seconds")
                    .snapshot().count, 0) << name;
    }
  }

  // The GP/HP orderings exercise the partitioners, which report their own
  // counters.
  EXPECT_GT(obs::counter("partition.gp.bisections").value(), 0);
  // Both FM refiners count their passes, how many of their moves survive
  // the rollback to the best prefix, and how often a move was set aside
  // because it would break balance.
  for (const std::string prefix : {"partition.fm.", "partition.hp.fm."}) {
    EXPECT_GT(obs::counter(prefix + "passes").value(), 0) << prefix;
    EXPECT_GT(obs::counter(prefix + "deferrals").value(), 0) << prefix;
    EXPECT_GT(obs::counter(prefix + "cut_improvement").value(), 0) << prefix;
    const std::int64_t kept = obs::counter(prefix + "moves_kept").value();
    EXPECT_GT(kept, 0) << prefix;
    EXPECT_LT(kept, obs::counter(prefix + "moves").value()) << prefix;
  }
}

TEST(FullStudy, SharesOneGpBisectionTreePerMatrix) {
  // Six separate k-way calls would bisect 15 + 31 + 47 + 63 + 71 + 127 = 354
  // times; the shared tree bisects 223 times. ND bisects through the same
  // partitioner, so its share is counted apart and subtracted.
  const CorpusEntry entry = generate_named("333SP", 0.05);
  ASSERT_GE(entry.matrix.num_rows(), 128);
  StudyOptions options;
  obs::Counter& bisections = obs::counter("partition.gp.bisections");
  std::int64_t before = bisections.value();
  compute_ordering(entry.matrix, OrderingKind::kNd, options.reorder);
  const std::int64_t nd = bisections.value() - before;
  before = bisections.value();
  run_matrix_study(entry, options);
  EXPECT_EQ(bisections.value() - before - nd, 223);
}
#endif

TEST(ReorderingSpeedups, DividesByOriginal) {
  MeasurementRow row;
  row.orderings.resize(7);
  for (std::size_t k = 0; k < 7; ++k) {
    row.orderings[k].gflops_max = static_cast<double>(k + 1);
  }
  const auto speedups = reordering_speedups(row);
  ASSERT_EQ(speedups.size(), 6u);
  EXPECT_DOUBLE_EQ(speedups[0], 2.0);
  EXPECT_DOUBLE_EQ(speedups[5], 7.0);
}

// One parser reads --jobs/ORDO_JOBS (>= 0), --count/ORDO_CORPUS_COUNT
// (>= 1), the ORDO_MEMBW_* knobs and the real-valued flags and knobs:
// numbers only, each held to its range, and a refusal names the flag or
// variable and the text.
TEST(ParseWholeNumber, HoldsEachFlagToItsRange) {
  EXPECT_EQ(parse_jobs("0", "--jobs"), 0);
  EXPECT_EQ(parse_jobs("4", "--jobs"), 4);
  EXPECT_EQ(parse_jobs("128", "ORDO_JOBS"), 128);
  for (const char* bad : {"", "four", "x", "-3", "4x", " 4", "2.5", "+4",
                          "99999999999"}) {
    EXPECT_THROW(parse_jobs(bad, "ORDO_JOBS"), invalid_argument_error) << bad;
  }
  EXPECT_EQ(parse_whole_number<int>("1", "--count", 1), 1);
  EXPECT_EQ(parse_whole_number<int>("2147483647", "--count", 1), 2147483647);
  for (const char* bad : {"0", "-1", "one", "1.5"}) {
    EXPECT_THROW(parse_whole_number<int>(bad, "--count", 1),
                 invalid_argument_error)
        << bad;
  }
  // ORDO_MEMBW_MIB is capped so its shift to bytes cannot wrap.
  constexpr std::size_t kMaxMib = std::numeric_limits<std::size_t>::max() >> 20;
  EXPECT_EQ(parse_whole_number<std::size_t>("1", "ORDO_MEMBW_MIB", 1, kMaxMib),
            1u);
  EXPECT_EQ(parse_whole_number<std::size_t>(std::to_string(kMaxMib),
                                            "ORDO_MEMBW_MIB", 1, kMaxMib),
            kMaxMib);
  for (const std::string& bad :
       {std::string("0"), std::to_string(kMaxMib + 1), std::string("8MiB"),
        std::string("")}) {
    EXPECT_THROW(parse_whole_number<std::size_t>(bad, "ORDO_MEMBW_MIB", 1,
                                                 kMaxMib),
                 invalid_argument_error)
        << bad;
  }
  EXPECT_EQ(parse_whole_number<std::uint64_t>("18446744073709551615",
                                              "--seed", 0),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"abc", "-1", "18446744073709551616", "7.0", ""}) {
    EXPECT_THROW(parse_whole_number<std::uint64_t>(bad, "--seed", 0),
                 invalid_argument_error)
        << bad;
  }
  // The real-valued flags: --scale (>= 0.01), --task-timeout (>= 0) and
  // --spmv-budget (>= 1) share one checked parse.
  EXPECT_DOUBLE_EQ(parse_real_number("0.05", "--scale", 0.01), 0.05);
  EXPECT_DOUBLE_EQ(parse_real_number("2e-2", "--scale", 0.01), 0.02);
  EXPECT_DOUBLE_EQ(parse_real_number("0", "--task-timeout", 0.0), 0.0);
  EXPECT_DOUBLE_EQ(parse_real_number("1", "--spmv-budget", 1.0), 1.0);
  for (const char* bad : {"x", "", "0.005", "-1", "inf", "nan", "1e999",
                          "0.5x", " 0.5", "+0.5", "0,5"}) {
    EXPECT_THROW(parse_real_number(bad, "--scale", 0.01),
                 invalid_argument_error)
        << bad;
  }
  EXPECT_THROW(parse_real_number("0.5", "--spmv-budget", 1.0),
               invalid_argument_error);
  EXPECT_THROW(parse_real_number("-0.1", "--task-timeout", 0.0),
               invalid_argument_error);
  // ORDO_CORPUS_SCALE and ORDO_CACHE_SCALE keep their floors: a number
  // below 0.01 (below 1) means 0.01 (1).
  setenv("ORDO_CORPUS_SCALE", "0.001", 1);
  EXPECT_DOUBLE_EQ(corpus_options_from_env().scale, 0.01);
  setenv("ORDO_CACHE_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(model_options_from_env().cache_scale, 1.0);
  unsetenv("ORDO_CACHE_SCALE");
  // ORDO_MEMBW_THREADS is capped at the affinity mask's CPUs; the cap is
  // checked by parsing alone, so no probe thread starts.
  const std::string max_threads = std::to_string(obs::affinity_cpu_count());
  const std::string over_threads = std::to_string(obs::affinity_cpu_count() + 1);
  const std::pair<std::function<void()>, std::string> refusals[] = {
      {[] { parse_jobs("four", "ORDO_JOBS"); },
       "ORDO_JOBS: expected a whole number >= 0, got 'four'"},
      {[] { parse_whole_number<int>("x", "run_study: --count", 1); },
       "run_study: --count: expected a whole number >= 1, got 'x'"},
      {[] {
         setenv("ORDO_MEMBW_MIB", "0", 1);
         obs::hw::membw_options_from_env();
       },
       "ORDO_MEMBW_MIB: expected a whole number in [1, 17592186044415], "
       "got '0'"},
      {[] {
         unsetenv("ORDO_MEMBW_MIB");
         setenv("ORDO_MEMBW_REPS", "two", 1);
         obs::hw::membw_options_from_env();
       },
       "ORDO_MEMBW_REPS: expected a whole number >= 1, got 'two'"},
      {[] {
         unsetenv("ORDO_MEMBW_REPS");
         setenv("ORDO_MEMBW_THREADS", "-1", 1);
         obs::hw::membw_options_from_env();
       },
       "ORDO_MEMBW_THREADS: expected a whole number in [0, " + max_threads +
           "], got '-1'"},
      {[&over_threads] {
         setenv("ORDO_MEMBW_THREADS", over_threads.c_str(), 1);
         obs::hw::membw_options_from_env();
       },
       "ORDO_MEMBW_THREADS: expected a whole number in [0, " + max_threads +
           "], got '" + over_threads + "'"},
      {[] {
         // Parsed once at start-up, not on each measured_peak_gbps() read.
         setenv("ORDO_PEAK_GBPS", "fast", 1);
         obs::hw::init_from_env();
       },
       "ORDO_PEAK_GBPS: expected a real number >= 0, got 'fast'"},
      {[] {
         setenv("ORDO_CACHE_SCALE", "64x", 1);
         model_options_from_env();
       },
       "ORDO_CACHE_SCALE: expected a real number >= 0, got '64x'"},
      {[] {
         unsetenv("ORDO_CACHE_SCALE");
         setenv("ORDO_SYNC_US", "-0.5", 1);
         model_options_from_env();
       },
       "ORDO_SYNC_US: expected a real number >= 0, got '-0.5'"},
      {[] {
         // Refused before the heartbeat writer would touch the file.
         setenv("ORDO_STATUS_FILE", "ordo_status_never_written.json", 1);
         setenv("ORDO_STATUS_INTERVAL", "1s", 1);
         obs::status::init_from_env();
       },
       "ORDO_STATUS_INTERVAL: expected a real number >= 0, got '1s'"},
      {[] {
         setenv("ORDO_CORPUS_COUNT", "0", 1);
         corpus_options_from_env();
       },
       "ORDO_CORPUS_COUNT: expected a whole number >= 1, got '0'"},
      {[] { parse_real_number("x", "run_study: --scale", 0.01); },
       "run_study: --scale: expected a real number >= 0.01, got 'x'"},
      {[] {
         parse_whole_number<std::uint64_t>("abc", "run_study: --seed", 0);
       },
       "run_study: --seed: expected a whole number >= 0, got 'abc'"},
      {[] {
         unsetenv("ORDO_CORPUS_COUNT");
         setenv("ORDO_CORPUS_SCALE", "x", 1);
         corpus_options_from_env();
       },
       "ORDO_CORPUS_SCALE: expected a real number >= 0, got 'x'"},
  };
  for (const auto& [parse, message] : refusals) {
    try {
      parse();
      ADD_FAILURE() << "accepted: " << message;
    } catch (const invalid_argument_error& e) {
      EXPECT_EQ(e.what(), message);
    }
  }
  for (const char* name :
       {"ORDO_CORPUS_COUNT", "ORDO_CORPUS_SCALE", "ORDO_MEMBW_THREADS",
        "ORDO_PEAK_GBPS", "ORDO_SYNC_US", "ORDO_STATUS_FILE",
        "ORDO_STATUS_INTERVAL"}) {
    unsetenv(name);
  }
}

TEST(ResultsFile, RoundTrip) {
  const auto corpus = generate_corpus(tiny_corpus());
  StudyOptions options;
  const StudyResults results = run_full_study(corpus, options);
  const auto& rows = results.at({"Rome", SpmvKernel::k1D});

  const std::string path = ::testing::TempDir() + "/ordo_results_test.txt";
  write_results_file(path, rows);
  const auto loaded = read_results_file(path);
  ASSERT_EQ(loaded.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(loaded[i].name, rows[i].name);
    EXPECT_EQ(loaded[i].nnz, rows[i].nnz);
    for (std::size_t k = 0; k < 7; ++k) {
      EXPECT_NEAR(loaded[i].orderings[k].gflops_max,
                  rows[i].orderings[k].gflops_max,
                  1e-6 * rows[i].orderings[k].gflops_max);
      EXPECT_EQ(loaded[i].orderings[k].bandwidth,
                rows[i].orderings[k].bandwidth);
      EXPECT_EQ(loaded[i].orderings[k].off_diagonal_nnz,
                rows[i].orderings[k].off_diagonal_nnz);
    }
  }
}

TEST(ResultsFilename, MatchesArtifactConvention) {
  EXPECT_EQ(results_filename(SpmvKernel::k1D, architecture_by_name("Milan B"),
                             490),
            "csr_1d_milan_b_128_threads_ss490.txt");
  EXPECT_EQ(results_filename(SpmvKernel::k2D, architecture_by_name("Rome"),
                             56),
            "csr_2d_rome_16_threads_ss56.txt");
}

TEST(StudyCache, SecondLoadReadsFiles) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/ordo_cache_test";
  fs::remove_all(dir);

  StudyOptions options;
  const StudyResults first = load_or_run_study(dir, tiny_corpus(), options);
  // All 16 files must exist now.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".txt") ++files;
  }
  EXPECT_EQ(files, 16u);

  const StudyResults second = load_or_run_study(dir, tiny_corpus(), options);
  ASSERT_EQ(second.size(), first.size());
  const auto& a = first.at({"Skylake", SpmvKernel::k1D});
  const auto& b = second.at({"Skylake", SpmvKernel::k1D});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_NEAR(a[i].orderings[4].gflops_max, b[i].orderings[4].gflops_max,
                1e-6 * a[i].orderings[4].gflops_max);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ordo
