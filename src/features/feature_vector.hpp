// The selector feature vector (schema v1): the fixed, versioned set of
// numeric inputs the learned ordering selector (src/select/) sees before any
// reordering has happened. Every entry is derivable both from a CsrMatrix
// (compute_selector_features — the serving path) and from the Original
// columns of an artifact-style result row (make_selector_features — the
// training and row-annotation path), so the offline trainer
// (tools/ordo_train_selector.py) and the in-process inference are guaranteed
// to agree on what "the features" are.
//
// The schema is versioned: committed model coefficient tables record the
// feature version they were trained against, and src/select/model.cpp
// static_asserts the two match. Adding, removing, or reordering entries
// means bumping kSelectorFeatureVersion and retraining.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "sparse/csr.hpp"

namespace ordo::features {

/// Bump when the vector's layout changes (see file comment).
inline constexpr int kSelectorFeatureVersion = 1;

/// Number of entries in the vector (the model adds its own bias term).
inline constexpr std::size_t kSelectorFeatureCount = 8;

using SelectorFeatures = std::array<double, kSelectorFeatureCount>;

/// Index-aligned names, for exports and diagnostics:
///   log2_rows, log2_nnz, mean_row_nnz, rel_bandwidth, log2_profile,
///   offdiag_frac, imbalance_1d, log2_threads.
const std::array<std::string, kSelectorFeatureCount>& selector_feature_names();

/// Builds the vector from the raw ingredients — exactly the Original-ordering
/// columns of a result row plus the row's size/thread metadata. This is the
/// single source of truth for the feature formulas; the matrix overload and
/// the Python trainer both mirror it.
SelectorFeatures make_selector_features(std::int64_t rows, std::int64_t nnz,
                                        std::int64_t bandwidth,
                                        std::int64_t profile,
                                        std::int64_t off_diagonal_nnz,
                                        double imbalance_1d, int threads);

/// Computes the vector directly from a matrix (bandwidth/profile/off-diagonal
/// count/1D imbalance via compute_features) — the path for a matrix with no
/// study row yet (reorder_explorer --auto).
SelectorFeatures compute_selector_features(const CsrMatrix& a, int threads);

/// One JSON object (single line, no trailing newline) describing the schema
/// and carrying one vector: {"schema_version":1,"name":...,"threads":...,
/// "features":{<name>:<value>,...}}. `run_study --export-features` emits one
/// such line per (matrix, distinct thread count).
std::string selector_features_json(const std::string& name, int threads,
                                   const SelectorFeatures& f);

}  // namespace ordo::features
