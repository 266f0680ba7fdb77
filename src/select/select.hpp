// ordo::select — umbrella header.
//
// The learned ordering selector: the policy layer that answers, *before any
// reordering work has been spent*, "which of the seven orderings should this
// matrix get, if any, and does it pay off within N SpMV calls?". It is the
// decision problem two of the retrieved papers frame (selection of
// reordering algorithms; is reordering effective for SpMV?).
//
//   features::SelectorFeatures f = features::compute_selector_features(a, t);
//   select::Decision d = select::select_ordering(f, baseline_seconds,
//                                                rows, nnz, kernel.id());
//
// Inference is dependency-free C++ over coefficient tables committed in
// model_coeffs.inc and regenerated offline by tools/ordo_train_selector.py
// from study result files (model.hpp documents the versioning contract).
//
// Telemetry: select::record_decision (selector.hpp) tallies each annotated
// study row in the metrics registry (select.decisions, select.oracle_hits,
// select.picks.<Ordering>, select.never_amortizes, the select.regret and
// select.amortize_calls histograms, the select.model_version gauge), so
// the heartbeat's "metrics" section carries the selector's live tally.
#pragma once

#include "select/amortize.hpp"  // IWYU pragma: export
#include "select/model.hpp"     // IWYU pragma: export
#include "select/selector.hpp"  // IWYU pragma: export
