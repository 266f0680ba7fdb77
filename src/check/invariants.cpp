#include "check/invariants.hpp"

#include <algorithm>
#include <vector>

#include "obs/obs.hpp"

namespace ordo::check {

const char* violation_kind_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kCsr: return "csr";
    case ViolationKind::kPermutation: return "permutation";
    case ViolationKind::kGraph: return "graph";
    case ViolationKind::kPartition: return "partition";
    case ViolationKind::kOrdering: return "ordering";
    case ViolationKind::kCholesky: return "cholesky";
    case ViolationKind::kPlan: return "plan";
  }
  return "?";
}

InvariantViolation::InvariantViolation(ViolationKind kind,
                                       const std::string& where,
                                       const std::string& detail)
    : invalid_argument_error(where + ": " + detail),
      kind_(kind),
      where_(where) {}

#if defined(ORDO_OBS_ENABLED)
namespace {

std::string counter_name(ViolationKind kind) {
  return std::string("check.violations.") + violation_kind_name(kind);
}

}  // namespace
#endif

void report_violation(ViolationKind kind, const std::string& where,
                      const std::string& detail) {
#if defined(ORDO_OBS_ENABLED)
  obs::counter(counter_name(kind)).increment();
  obs::logf(obs::LogLevel::kProgress, "invariant violation [%s] at %s: %s",
            violation_kind_name(kind), where.c_str(), detail.c_str());
#endif
  throw InvariantViolation(kind, where, detail);
}

std::int64_t violation_count(ViolationKind kind) {
#if defined(ORDO_OBS_ENABLED)
  const std::string name = counter_name(kind);
  return obs::has_metric(name) ? obs::counter(name).value() : 0;
#else
  (void)kind;
  return 0;
#endif
}

void validate_csr_raw(index_t num_rows, index_t num_cols,
                      std::span<const offset_t> row_ptr,
                      std::span<const index_t> col_idx,
                      std::size_t num_values, const std::string& where) {
  const ViolationKind kind = ViolationKind::kCsr;
  if (num_rows < 0 || num_cols < 0) {
    report_violation(kind, where, "negative dimension");
  }
  if (row_ptr.size() != static_cast<std::size_t>(num_rows) + 1) {
    report_violation(kind, where, "row_ptr size must be num_rows + 1");
  }
  if (row_ptr.front() != 0) {
    report_violation(kind, where, "row_ptr must start at 0");
  }
  if (row_ptr.back() != static_cast<offset_t>(col_idx.size())) {
    report_violation(kind, where, "row_ptr must end at nnz");
  }
  if (col_idx.size() != num_values) {
    report_violation(kind, where, "col_idx and values must have equal length");
  }
  for (index_t i = 0; i < num_rows; ++i) {
    if (row_ptr[static_cast<std::size_t>(i)] >
        row_ptr[static_cast<std::size_t>(i) + 1]) {
      report_violation(kind, where,
                       "row_ptr must be nondecreasing (row " +
                           std::to_string(i) + ")");
    }
    for (offset_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t j = col_idx[static_cast<std::size_t>(k)];
      if (j < 0 || j >= num_cols) {
        report_violation(kind, where,
                         "column index out of range (row " +
                             std::to_string(i) + ")");
      }
      if (k > row_ptr[static_cast<std::size_t>(i)] &&
          col_idx[static_cast<std::size_t>(k - 1)] >= j) {
        report_violation(
            kind, where,
            "columns must be strictly ascending within a row (row " +
                std::to_string(i) + ")");
      }
    }
  }
}

void validate_permutation_raw(std::span<const index_t> perm, index_t n,
                              const std::string& where) {
  const ViolationKind kind = ViolationKind::kPermutation;
  if (perm.size() != static_cast<std::size_t>(n)) {
    report_violation(kind, where,
                     "permutation length " + std::to_string(perm.size()) +
                         " does not match n = " + std::to_string(n));
  }
  // In-range and no repeats together imply bijectivity in both directions.
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    const index_t image = perm[i];
    if (image < 0 || image >= n) {
      report_violation(kind, where,
                       "image out of range at position " + std::to_string(i));
    }
    if (seen[static_cast<std::size_t>(image)]) {
      report_violation(kind, where,
                       "image " + std::to_string(image) +
                           " repeated (not a bijection)");
    }
    seen[static_cast<std::size_t>(image)] = 1;
  }
}

void validate_adjacency_raw(index_t num_vertices,
                            std::span<const offset_t> adj_ptr,
                            std::span<const index_t> adj, bool check_symmetry,
                            const std::string& where) {
  const ViolationKind kind = ViolationKind::kGraph;
  if (num_vertices < 0) {
    report_violation(kind, where, "negative vertex count");
  }
  if (adj_ptr.size() != static_cast<std::size_t>(num_vertices) + 1) {
    report_violation(kind, where, "adj_ptr size must be num_vertices + 1");
  }
  if (adj_ptr.front() != 0) {
    report_violation(kind, where, "adj_ptr must start at 0");
  }
  if (adj_ptr.back() != static_cast<offset_t>(adj.size())) {
    report_violation(kind, where, "adj_ptr must end at adjacency size");
  }
  for (index_t v = 0; v < num_vertices; ++v) {
    if (adj_ptr[static_cast<std::size_t>(v)] >
        adj_ptr[static_cast<std::size_t>(v) + 1]) {
      report_violation(kind, where, "adj_ptr not monotone");
    }
    for (offset_t k = adj_ptr[static_cast<std::size_t>(v)];
         k < adj_ptr[static_cast<std::size_t>(v) + 1]; ++k) {
      const index_t u = adj[static_cast<std::size_t>(k)];
      if (u < 0 || u >= num_vertices) {
        report_violation(kind, where,
                         "neighbour out of range at vertex " +
                             std::to_string(v));
      }
      if (u == v) {
        report_violation(kind, where,
                         "self-loop at vertex " + std::to_string(v));
      }
    }
  }
  if (check_symmetry) {
    // Every directed entry (v, u) needs its mirror (u, v). Sort the full
    // directed edge list once, then binary-search each mirror: O(m log m),
    // fine at seam granularity.
    std::vector<std::pair<index_t, index_t>> edges;
    edges.reserve(adj.size());
    for (index_t v = 0; v < num_vertices; ++v) {
      for (offset_t k = adj_ptr[static_cast<std::size_t>(v)];
           k < adj_ptr[static_cast<std::size_t>(v) + 1]; ++k) {
        edges.emplace_back(v, adj[static_cast<std::size_t>(k)]);
      }
    }
    std::sort(edges.begin(), edges.end());
    for (const auto& [v, u] : edges) {
      if (!std::binary_search(edges.begin(), edges.end(),
                              std::make_pair(u, v))) {
        report_violation(kind, where,
                         "edge (" + std::to_string(v) + ", " +
                             std::to_string(u) +
                             ") has no mirror (adjacency not symmetric)");
      }
    }
  }
}

void validate_elimination_tree_raw(std::span<const index_t> parent,
                                   const std::string& where) {
  const index_t n = static_cast<index_t>(parent.size());
  for (index_t j = 0; j < n; ++j) {
    const index_t p = parent[static_cast<std::size_t>(j)];
    if (p != -1 && (p <= j || p >= n)) {
      report_violation(ViolationKind::kCholesky, where,
                       "etree parent of column " + std::to_string(j) +
                           " must be -1 or in (j, n)");
    }
  }
}

void validate_thread_partition_raw(index_t num_rows,
                                   std::span<const offset_t> row_ptr,
                                   ThreadPartitionKind kind,
                                   std::span<const index_t> row_begin,
                                   std::span<const offset_t> nnz_begin,
                                   const std::string& where) {
  const ViolationKind violation = ViolationKind::kPlan;
  if (num_rows < 0 ||
      row_ptr.size() != static_cast<std::size_t>(num_rows) + 1) {
    report_violation(violation, where, "row_ptr size must be num_rows + 1");
  }
  if (row_begin.size() != nnz_begin.size() || nnz_begin.size() < 2) {
    report_violation(violation, where,
                     "row_begin and nnz_begin must both have threads + 1 "
                     "entries (threads >= 1)");
  }
  const offset_t nnz = row_ptr.back();
  if (nnz_begin.front() != 0 || nnz_begin.back() != nnz) {
    report_violation(violation, where,
                     "nonzero boundaries must run from 0 to nnz");
  }
  const std::size_t boundaries = nnz_begin.size();
  for (std::size_t t = 1; t < boundaries; ++t) {
    if (nnz_begin[t - 1] > nnz_begin[t] || row_begin[t - 1] > row_begin[t]) {
      report_violation(violation, where,
                       "thread boundaries must be nondecreasing (boundary " +
                           std::to_string(t) + ")");
    }
  }
  const bool full_row_span = kind != ThreadPartitionKind::kNnzSplit;
  if (full_row_span &&
      (row_begin.front() != 0 || row_begin.back() != num_rows)) {
    report_violation(violation, where,
                     "row boundaries must run from 0 to num_rows");
  }
  for (std::size_t t = 0; t < boundaries; ++t) {
    const index_t row = row_begin[t];
    if (row < 0 || row > num_rows) {
      report_violation(violation, where,
                       "row boundary out of range (boundary " +
                           std::to_string(t) + ")");
    }
    switch (kind) {
      case ThreadPartitionKind::kRowBlocks:
        if (nnz_begin[t] != row_ptr[static_cast<std::size_t>(row)]) {
          report_violation(violation, where,
                           "nonzero boundary must coincide with the start of "
                           "its row (boundary " +
                               std::to_string(t) + ")");
        }
        break;
      case ThreadPartitionKind::kNnzSplit:
        if (num_rows > 0 && row >= num_rows) {
          report_violation(violation, where,
                           "boundary row must be an existing row (boundary " +
                               std::to_string(t) + ")");
        }
        [[fallthrough]];
      case ThreadPartitionKind::kMergePath:
        // The boundary nonzero must lie inside (or at the exclusive end of)
        // its boundary row: row_ptr[row] <= nnz_begin[t] <= row_ptr[row+1].
        if (row < num_rows &&
            (nnz_begin[t] < row_ptr[static_cast<std::size_t>(row)] ||
             nnz_begin[t] > row_ptr[static_cast<std::size_t>(row) + 1])) {
          report_violation(violation, where,
                           "boundary nonzero lies outside its boundary row "
                           "(boundary " +
                               std::to_string(t) + ")");
        }
        if (row == num_rows && nnz_begin[t] != nnz) {
          report_violation(violation, where,
                           "a boundary at the row end must sit at nnz "
                           "(boundary " +
                               std::to_string(t) + ")");
        }
        break;
    }
  }
}

}  // namespace ordo::check
