// The selection policy: score all seven orderings from the feature vector
// alone (predicted speedup from the committed model, predicted one-off
// reorder cost amortized over the caller's SpMV budget) and pick the one
// with the lowest predicted net per-call time.
#pragma once

#include <array>
#include <string>

#include "engine/engine.hpp"
#include "features/feature_vector.hpp"
#include "reorder/reordering.hpp"
#include "select/model.hpp"

namespace ordo::select {

struct SelectorOptions {
  /// N in "does the reordering pay off within N SpMV calls?" — the budget
  /// its one-off cost is amortized over. The default matches the iteration
  /// counts iterative solvers actually run (and run_study --spmv-budget).
  double spmv_budget = 10000.0;
  /// Override of the trained decision margin; < 0 keeps the committed value.
  double margin = -1.0;
};

/// The selector's verdict for one (matrix features, kernel, budget) triple.
/// Arrays are indexed like study_orderings(): Original, RCM, AMD, ND, GP,
/// HP, Gray.
struct Decision {
  int pick = 0;  ///< index into study_orderings(); 0 = keep Original
  std::array<double, kNumOrderings> predicted_speedup{};
  std::array<double, kNumOrderings> predicted_reorder_seconds{};
  std::array<double, kNumOrderings> predicted_net_seconds{};
  /// Predicted calls until the pick's reorder cost is recovered vs staying
  /// with Original (0 when the pick is Original, kNeverAmortizes when the
  /// model expects no improvement).
  double predicted_amortize_calls = 0.0;
};

/// Scores every ordering and picks. `baseline_seconds` is the per-call SpMV
/// time under the Original ordering (modeled or measured — the model only
/// predicts *relative* speedups, so the caller supplies the scale);
/// `rows`/`nnz` size the reorder-cost prediction.
Decision select_ordering(const features::SelectorFeatures& f,
                         double baseline_seconds, std::int64_t rows,
                         std::int64_t nnz, const std::string& kernel_id,
                         const SelectorOptions& options = {});

/// Convenience overload: computes the feature vector from the matrix.
Decision select_ordering(const CsrMatrix& a, const SpmvKernel& kernel,
                         int threads, double baseline_seconds,
                         const SelectorOptions& options = {});

/// Records one annotated row's decision in the metrics registry (select.*
/// counters, the select.regret and select.amortize_calls histograms and
/// the select.model_version gauge; a no-op when telemetry is compiled out).
/// `amortize_calls` uses the study's encoding: kNeverAmortizes (-1) for
/// "never", 0 for "pick was Original". Thread-safe; the study's pool
/// workers call it concurrently.
void record_decision(int pick, int oracle, double regret,
                     double amortize_calls);

}  // namespace ordo::select
