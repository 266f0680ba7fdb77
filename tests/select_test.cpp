// Tests for src/select (the ordering selector) and the --auto-order study
// mode: feature-vector goldens, model inference mechanics, amortization
// edge cases, the regret >= 0 invariant, journal round-trip / resume
// determinism of annotated rows, and the live "select" status section.
// Runs under `ctest -L select`.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "core/auto_order.hpp"
#include "core/experiment.hpp"
#include "features/features.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/status/status.hpp"
#include "pipeline/journal.hpp"
#include "select/select.hpp"

namespace ordo {
namespace {

namespace fs = std::filesystem;

CorpusOptions tiny_corpus() {
  CorpusOptions options;
  options.count = 4;
  options.scale = 0.02;
  return options;
}

StudyOptions auto_order_options() {
  StudyOptions options;
  options.auto_order = true;
  return options;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// ---------------------------------------------------------------------------
// Feature vector (schema v1 golden values).
// ---------------------------------------------------------------------------

TEST(SelectorFeatures, GoldenVectorForKnownInputs) {
  const features::SelectorFeatures f = features::make_selector_features(
      /*rows=*/1000, /*nnz=*/5000, /*bandwidth=*/100, /*profile=*/20000,
      /*off_diagonal_nnz=*/1500, /*imbalance_1d=*/1.25, /*threads=*/64);
  ASSERT_EQ(f.size(), features::kSelectorFeatureCount);
  EXPECT_DOUBLE_EQ(f[0], std::log2(1001.0));
  EXPECT_DOUBLE_EQ(f[1], std::log2(5001.0));
  EXPECT_DOUBLE_EQ(f[2], 5.0);
  EXPECT_DOUBLE_EQ(f[3], 0.1);
  EXPECT_DOUBLE_EQ(f[4], std::log2(20001.0));
  EXPECT_DOUBLE_EQ(f[5], 0.3);
  EXPECT_DOUBLE_EQ(f[6], 1.25);
  EXPECT_DOUBLE_EQ(f[7], 6.0);
  EXPECT_EQ(features::kSelectorFeatureVersion, 1);
  EXPECT_EQ(features::selector_feature_names().size(), f.size());
}

TEST(SelectorFeatures, MatrixOverloadMatchesScalarPath) {
  const CorpusEntry entry = generate_named("HV15R", 0.05);
  const int threads = 48;
  const features::SelectorFeatures from_matrix =
      features::compute_selector_features(entry.matrix, threads);
  const FeatureReport report = compute_features(entry.matrix, threads);
  const features::SelectorFeatures from_columns =
      features::make_selector_features(
          entry.matrix.num_rows(), entry.matrix.num_nonzeros(),
          report.bandwidth, report.profile, report.off_diagonal_nonzeros,
          report.imbalance_1d, threads);
  for (std::size_t i = 0; i < from_matrix.size(); ++i) {
    EXPECT_DOUBLE_EQ(from_matrix[i], from_columns[i]) << "feature " << i;
  }
}

// ---------------------------------------------------------------------------
// Model inference.
// ---------------------------------------------------------------------------

TEST(SelectorModel, InjectedWeightsComputeAffineForm) {
  const double weights[features::kSelectorFeatureCount + 1] = {
      0.5, 1.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25};
  features::SelectorFeatures f{};
  f[0] = 3.0;
  f[1] = 1.5;
  f[7] = 4.0;
  EXPECT_DOUBLE_EQ(select::log2_speedup_with_weights(weights, f),
                   0.5 + 3.0 - 3.0 + 1.0);
}

TEST(SelectorModel, OriginalAlwaysPredictsNoChangeAndNoCost) {
  features::SelectorFeatures f{};
  f[1] = 20.0;
  EXPECT_DOUBLE_EQ(select::predicted_log2_speedup("csr_1d", 0, f), 0.0);
  EXPECT_DOUBLE_EQ(select::predicted_reorder_seconds(0, 1 << 20, 1 << 24),
                   0.0);
}

TEST(SelectorModel, UnknownKernelFallsBackToCsr1dTable) {
  const CorpusEntry entry = generate_named("333SP", 0.05);
  const features::SelectorFeatures f =
      features::compute_selector_features(entry.matrix, 72);
  for (std::size_t k = 1; k < select::kNumOrderings; ++k) {
    EXPECT_DOUBLE_EQ(select::predicted_log2_speedup("no_such_kernel", k, f),
                     select::predicted_log2_speedup("csr_1d", k, f));
  }
}

TEST(SelectorModel, CommittedTableIsTrainedAndCostsGrowWithNnz) {
  EXPECT_GE(select::model_version(), 1);  // not the all-zero placeholder
  EXPECT_GE(select::decision_margin(), 0.0);
  EXPECT_NE(select::model_fingerprint(), 0u);
  for (std::size_t k = 1; k < select::kNumOrderings; ++k) {
    const double small = select::predicted_reorder_seconds(k, 10000, 100000);
    const double large =
        select::predicted_reorder_seconds(k, 1000000, 10000000);
    EXPECT_GT(small, 0.0) << "ordering " << k;
    EXPECT_GT(large, small) << "ordering " << k;
  }
}

// ---------------------------------------------------------------------------
// Amortization arithmetic.
// ---------------------------------------------------------------------------

TEST(Amortization, ZeroOverheadAmortizesImmediately) {
  EXPECT_DOUBLE_EQ(select::amortization_point(0.0, 1e-5, 0.5e-5), 0.0);
  EXPECT_DOUBLE_EQ(select::amortization_point(0.0, 1e-5, 1e-5), 0.0);
  // Free but slower: never pays off.
  EXPECT_DOUBLE_EQ(select::amortization_point(0.0, 1e-5, 2e-5),
                   select::kNeverAmortizes);
}

TEST(Amortization, NeverAmortizesWhenNotFaster) {
  EXPECT_DOUBLE_EQ(select::amortization_point(1.0, 1e-5, 1e-5),
                   select::kNeverAmortizes);
  EXPECT_DOUBLE_EQ(select::amortization_point(1.0, 1e-5, 2e-5),
                   select::kNeverAmortizes);
  EXPECT_LT(select::kNeverAmortizes, 0.0);  // text-format-safe sentinel
}

TEST(Amortization, BreakEvenPointAndBudgetOfOne) {
  // Costs 1 ms, saves 1 us/call: breaks even at exactly 1000 calls.
  EXPECT_DOUBLE_EQ(select::amortization_point(1e-3, 3e-6, 2e-6), 1000.0);
  EXPECT_FALSE(select::pays_off_within(1e-3, 3e-6, 2e-6, 999.0));
  EXPECT_TRUE(select::pays_off_within(1e-3, 3e-6, 2e-6, 1001.0));

  // A budget of one call pays the whole reorder cost on that call.
  EXPECT_DOUBLE_EQ(select::net_seconds_per_call(2e-6, 1e-3, 1.0),
                   2e-6 + 1e-3);
  EXPECT_FALSE(select::pays_off_within(1e-3, 3e-6, 2e-6, 1.0));
  // Zero/negative budgets clamp to one call instead of dividing by zero.
  EXPECT_DOUBLE_EQ(select::net_seconds_per_call(2e-6, 1e-3, 0.0),
                   2e-6 + 1e-3);
}

// ---------------------------------------------------------------------------
// Decision policy.
// ---------------------------------------------------------------------------

TEST(SelectorDecision, FullMarginAlwaysKeepsOriginal) {
  const CorpusEntry entry = generate_named("kmer_V1r", 0.05);
  select::SelectorOptions options;
  options.margin = 1.0;  // switching must beat Original by 100%: impossible
  const select::Decision decision = select::select_ordering(
      entry.matrix, SpmvKernel::k1D, 72, /*baseline_seconds=*/1e-5, options);
  EXPECT_EQ(decision.pick, 0);
  EXPECT_DOUBLE_EQ(decision.predicted_amortize_calls, 0.0);
  EXPECT_DOUBLE_EQ(decision.predicted_speedup[0], 1.0);
  EXPECT_DOUBLE_EQ(decision.predicted_net_seconds[0], 1e-5);
}

TEST(SelectorDecision, TinyBudgetPricesOutEveryReordering) {
  const CorpusEntry entry = generate_named("europe_osm", 0.05);
  select::SelectorOptions options;
  options.spmv_budget = 1.0;  // reorder cost lands on a single call
  options.margin = 0.0;
  const select::Decision decision = select::select_ordering(
      entry.matrix, SpmvKernel::k1D, 72, /*baseline_seconds=*/1e-5, options);
  EXPECT_EQ(decision.pick, 0);  // milliseconds of cost vs one 10us call
  for (std::size_t k = 1; k < select::kNumOrderings; ++k) {
    EXPECT_GT(decision.predicted_net_seconds[k],
              decision.predicted_net_seconds[0]);
  }
}

// ---------------------------------------------------------------------------
// Study annotation: regret invariant, journal round-trip, determinism.
// ---------------------------------------------------------------------------

TEST(AutoOrderStudy, RegretIsNonNegativeAndOracleIsArgmin) {
  const auto corpus = generate_corpus(tiny_corpus());
  const StudyOptions options = auto_order_options();
  const MatrixStudyRows rows = run_matrix_study(corpus[0], options);
  ASSERT_EQ(rows.size(), 16u);
  for (const auto& [key, row] : rows) {
    ASSERT_TRUE(row.has_select) << key.first;
    EXPECT_GE(row.regret, 0.0);
    EXPECT_GE(row.pick, 0);
    EXPECT_LT(row.pick, static_cast<int>(select::kNumOrderings));
    EXPECT_LE(row.oracle_net_seconds, row.pick_net_seconds);
    if (row.pick == row.oracle) {
      EXPECT_DOUBLE_EQ(row.regret, 0.0);
      EXPECT_DOUBLE_EQ(row.pick_net_seconds, row.oracle_net_seconds);
    }
    if (row.pick == 0) {
      EXPECT_DOUBLE_EQ(row.pick_amortize_calls, 0.0);
    }
    // The oracle must actually minimize realized net over all orderings.
    for (std::size_t k = 0; k < row.orderings.size(); ++k) {
      const double net =
          row.orderings[k].seconds +
          select::predicted_reorder_seconds(k, row.rows, row.nnz) /
              options.spmv_budget;
      EXPECT_GE(net, row.oracle_net_seconds - 1e-18) << "ordering " << k;
    }
  }
}

TEST(AutoOrderStudy, JournalRoundTripsSelectionColumns) {
  const auto corpus = generate_corpus(tiny_corpus());
  const StudyOptions options = auto_order_options();
  const MatrixStudyRows rows = run_matrix_study(corpus[1], options);

  const std::string dir = ::testing::TempDir() + "/ordo_select_journal";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path =
      (fs::path(dir) / pipeline::kJournalFilename).string();
  const pipeline::JournalKey key =
      pipeline::make_journal_key(corpus, options);
  {
    pipeline::JournalWriter writer(path, key);
    writer.append({1, rows});
  }
  const auto records = pipeline::load_journal(path, key);
  ASSERT_EQ(records.size(), 1u);
  for (const auto& [machine_kernel, row] : rows) {
    const MeasurementRow& loaded = records[0].rows.at(machine_kernel);
    ASSERT_TRUE(loaded.has_select);
    EXPECT_EQ(loaded.pick, row.pick);
    EXPECT_EQ(loaded.oracle, row.oracle);
    EXPECT_DOUBLE_EQ(loaded.regret, row.regret);
    EXPECT_DOUBLE_EQ(loaded.pick_net_seconds, row.pick_net_seconds);
    EXPECT_DOUBLE_EQ(loaded.oracle_net_seconds, row.oracle_net_seconds);
    EXPECT_DOUBLE_EQ(loaded.pick_amortize_calls, row.pick_amortize_calls);
  }

  // A journal written WITHOUT --auto-order must not replay into a run that
  // expects selection columns: the fingerprint separates the two modes.
  StudyOptions plain;
  EXPECT_NE(pipeline::make_journal_key(corpus, plain).fingerprint,
            key.fingerprint);
  EXPECT_TRUE(pipeline::load_journal(
                  path, pipeline::make_journal_key(corpus, plain))
                  .empty());
  fs::remove_all(dir);
}

TEST(AutoOrderStudy, CachedReloadAndJobsCountAreByteIdentical) {
  const CorpusOptions corpus = tiny_corpus();
  StudyOptions options = auto_order_options();

  const std::string dir1 = ::testing::TempDir() + "/ordo_select_jobs1";
  const std::string dir2 = ::testing::TempDir() + "/ordo_select_jobs2";
  fs::remove_all(dir1);
  fs::remove_all(dir2);
  options.jobs = 1;
  const StudyResults first = load_or_run_study(dir1, corpus, options);
  options.jobs = 2;
  load_or_run_study(dir2, corpus, options);

  ASSERT_TRUE(study_rows_have_selection(first));
  std::size_t compared = 0;
  for (const auto& entry : fs::directory_iterator(dir1)) {
    if (entry.path().extension() != ".txt") continue;
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(slurp(entry.path().string()),
              slurp((fs::path(dir2) / name).string()))
        << name;
    ++compared;
  }
  EXPECT_EQ(compared, 16u);

  // Reloading the cache re-annotates from the file's 9-significant-digit
  // columns: picks and oracles are identical, regret agrees to well past
  // the printed precision.
  options.jobs = 1;
  const StudyResults reloaded = load_or_run_study(dir1, corpus, options);
  ASSERT_TRUE(study_rows_have_selection(reloaded));
  const auto& a = first.at({"Ice Lake", SpmvKernel::k1D});
  const auto& b = reloaded.at({"Ice Lake", SpmvKernel::k1D});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pick, b[i].pick);
    EXPECT_EQ(a[i].oracle, b[i].oracle);
    EXPECT_NEAR(a[i].regret, b[i].regret, 1e-9 * (1.0 + a[i].regret));
  }

  // And the rewrite is a fixed point: re-annotating what the reload just
  // wrote reproduces every file byte for byte.
  std::map<std::string, std::string> after_first_reload;
  for (const auto& entry : fs::directory_iterator(dir1)) {
    if (entry.path().extension() != ".txt") continue;
    after_first_reload[entry.path().filename().string()] =
        slurp(entry.path().string());
  }
  load_or_run_study(dir1, corpus, options);
  for (const auto& [name, bytes] : after_first_reload) {
    EXPECT_EQ(bytes, slurp((fs::path(dir1) / name).string())) << name;
  }

  // Aggregates are well-formed on the annotated study.
  const SelectionSummary total = total_selection_summary(first, options);
  EXPECT_EQ(total.rows, static_cast<std::int64_t>(16 * corpus.count));
  EXPECT_GE(total.oracle_gap(), 0.0);
  EXPECT_GT(total.geomean_pick_net, 0.0);
  EXPECT_GE(total.geomean_pick_net, total.geomean_oracle_net);
  fs::remove_all(dir1);
  fs::remove_all(dir2);
}

// ---------------------------------------------------------------------------
// Live telemetry: the selector's tally lives in the metrics registry.
// ---------------------------------------------------------------------------

#if defined(ORDO_OBS_ENABLED)
TEST(SelectStatus, RecordedDecisionsAppearInStatusSnapshot) {
  // The registry is process-wide and other tests in this process record
  // decisions too (--auto-order studies), so check deltas, not totals.
  const auto counter_value = [](const obs::JsonValue& doc,
                                const std::string& name) -> std::int64_t {
    const obs::JsonValue* entry =
        doc.at("metrics").at("counters").find(name);
    return entry != nullptr ? entry->at("value").as_int() : 0;
  };
  const auto histogram = [](const std::string& name) {
    return obs::histogram(name).snapshot();
  };
  const obs::JsonValue before =
      obs::parse_json(obs::status::snapshot_json());
  const obs::Histogram::Snapshot regret_before = histogram("select.regret");
  const obs::Histogram::Snapshot amortize_before =
      histogram("select.amortize_calls");

  select::record_decision(/*pick=*/1, /*oracle=*/1, /*regret=*/0.0,
                          /*amortize_calls=*/50.0);
  select::record_decision(/*pick=*/0, /*oracle=*/6, /*regret=*/0.25,
                          /*amortize_calls=*/0.0);
  select::record_decision(/*pick=*/2, /*oracle=*/2, /*regret=*/0.0,
                          select::kNeverAmortizes);

  const obs::JsonValue after = obs::parse_json(obs::status::snapshot_json());
  const auto delta = [&](const std::string& name) {
    return counter_value(after, name) - counter_value(before, name);
  };
  EXPECT_EQ(delta("select.decisions"), 3);
  EXPECT_EQ(delta("select.oracle_hits"), 2);
  EXPECT_EQ(delta("select.picks.Original"), 1);
  EXPECT_EQ(delta("select.picks.RCM"), 1);
  EXPECT_EQ(delta("select.picks.AMD"), 1);
  EXPECT_EQ(delta("select.picks.Gray"), 0);
  EXPECT_EQ(delta("select.never_amortizes"), 1);
  EXPECT_EQ(after.at("metrics").at("gauges").at("select.model_version")
                .as_int(),
            select::model_version());
  // The regret histogram's exact sum and max replace the old micro-unit
  // tally; amortization points are recorded only when finite.
  const obs::Histogram::Snapshot regret = histogram("select.regret");
  EXPECT_EQ(regret.count - regret_before.count, 3);
  EXPECT_DOUBLE_EQ(regret.sum - regret_before.sum, 0.25);
  EXPECT_GE(regret.max, 0.25);
  const obs::Histogram::Snapshot amortize =
      histogram("select.amortize_calls");
  EXPECT_EQ(amortize.count - amortize_before.count, 2);
  EXPECT_DOUBLE_EQ(amortize.sum - amortize_before.sum, 50.0);
  EXPECT_NE(after.at("metrics").at("histograms").find("select.regret"),
            nullptr);
  EXPECT_EQ(after.find("select"), nullptr);
}
#endif

}  // namespace
}  // namespace ordo
