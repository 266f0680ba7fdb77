#include "select/selector.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "select/amortize.hpp"

namespace ordo::select {

Decision select_ordering(const features::SelectorFeatures& f,
                         double baseline_seconds, std::int64_t rows,
                         std::int64_t nnz, const std::string& kernel_id,
                         const SelectorOptions& options) {
  require(baseline_seconds > 0.0,
          "select_ordering: baseline_seconds must be positive");
  require(study_orderings().size() == kNumOrderings,
          "select_ordering: ordering table out of sync with reorder module");
  ORDO_COUNTER_ADD("select.inferences", 1);

  Decision d;
  for (std::size_t k = 0; k < kNumOrderings; ++k) {
    d.predicted_speedup[k] =
        std::exp2(predicted_log2_speedup(kernel_id, k, f));
    d.predicted_reorder_seconds[k] = predicted_reorder_seconds(k, rows, nnz);
    d.predicted_net_seconds[k] =
        net_seconds_per_call(baseline_seconds / d.predicted_speedup[k],
                             d.predicted_reorder_seconds[k],
                             options.spmv_budget);
  }

  // Lowest predicted net per-call time wins; ties break toward the lower
  // study index (so Original wins exact ties — determinism and caution).
  int best = 0;
  for (std::size_t k = 1; k < kNumOrderings; ++k) {
    if (d.predicted_net_seconds[k] < d.predicted_net_seconds[best]) {
      best = static_cast<int>(k);
    }
  }
  // The margin guards the break-even region: switching away from Original
  // must be predicted to pay by more than noise.
  const double margin = options.margin >= 0.0 ? options.margin
                                              : decision_margin();
  if (best != 0 && d.predicted_net_seconds[best] >
                       d.predicted_net_seconds[0] * (1.0 - margin)) {
    best = 0;
  }
  d.pick = best;
  d.predicted_amortize_calls =
      best == 0 ? 0.0
                : amortization_point(
                      d.predicted_reorder_seconds[best], baseline_seconds,
                      baseline_seconds / d.predicted_speedup[best]);
  return d;
}

Decision select_ordering(const CsrMatrix& a, const SpmvKernel& kernel,
                         int threads, double baseline_seconds,
                         const SelectorOptions& options) {
  return select_ordering(features::compute_selector_features(a, threads),
                         baseline_seconds, a.num_rows(), a.num_nonzeros(),
                         kernel.id(), options);
}

void record_decision(int pick, int oracle, double regret,
                     double amortize_calls) {
#if defined(ORDO_OBS_ENABLED)
  // Looked up once: the pick counters' names come from the ordering table,
  // which ORDO_COUNTER_ADD's per-site cache cannot hold. All seven register
  // on the first decision, so a pick distribution shows its zeros.
  static const std::array<obs::Counter*, kNumOrderings> picks = [] {
    std::array<obs::Counter*, kNumOrderings> out{};
    const auto kinds = study_orderings();
    for (std::size_t k = 0; k < kNumOrderings; ++k) {
      out[k] = &obs::counter("select.picks." + ordering_name(kinds[k]));
    }
    return out;
  }();
  static obs::Gauge& version = obs::gauge("select.model_version");
  static obs::Histogram& regrets = obs::histogram("select.regret");
  static obs::Histogram& amortize = obs::histogram("select.amortize_calls");
  version.set(model_version());
  ORDO_COUNTER_ADD("select.decisions", 1);
  // Added even when 0, so the counter exists from the first decision.
  ORDO_COUNTER_ADD("select.oracle_hits", pick == oracle ? 1 : 0);
  if (pick >= 0 && pick < static_cast<int>(kNumOrderings)) {
    picks[static_cast<std::size_t>(pick)]->increment();
  }
  regrets.record(regret);
  const bool never = amortize_calls < 0.0;  // kNeverAmortizes
  ORDO_COUNTER_ADD("select.never_amortizes", never ? 1 : 0);
  if (!never) amortize.record(amortize_calls);
#else
  (void)pick;
  (void)oracle;
  (void)regret;
  (void)amortize_calls;
#endif
}

}  // namespace ordo::select
