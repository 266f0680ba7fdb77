#include "check/check.hpp"

#include <algorithm>
#include <string>

#include "sparse/csr_ops.hpp"

namespace ordo::check {

void validate_csr(const CsrMatrix& a, const std::string& where) {
  validate_csr_raw(a.num_rows(), a.num_cols(), a.row_ptr(), a.col_idx(),
                   a.values().size(), where);
}

void validate_permutation(const Permutation& perm, index_t n,
                          const std::string& where) {
  validate_permutation_raw(perm, n, where);
}

void validate_graph(const Graph& g, const std::string& where) {
  validate_adjacency_raw(g.num_vertices(), g.adj_ptr(), g.adj(),
                         /*check_symmetry=*/true, where);
  if (g.has_weights()) {
    for (index_t v = 0; v < g.num_vertices(); ++v) {
      if (g.vertex_weight(v) <= 0) {
        report_violation(ViolationKind::kGraph, where,
                         "nonpositive vertex weight at vertex " +
                             std::to_string(v));
      }
    }
  }
}

void validate_symmetric_pattern(const CsrMatrix& a, const std::string& where) {
  if (!a.is_square()) {
    report_violation(ViolationKind::kCsr, where,
                     "symmetric pattern requires a square matrix");
  }
  if (!is_pattern_symmetric(a)) {
    report_violation(ViolationKind::kCsr, where,
                     "matrix pattern is not symmetric");
  }
}

void validate_partition(const Graph& g, const PartitionResult& result,
                        index_t num_parts, const std::string& where) {
  const ViolationKind kind = ViolationKind::kPartition;
  if (result.num_parts != num_parts) {
    report_violation(kind, where,
                     "recorded num_parts " + std::to_string(result.num_parts) +
                         " does not match requested " +
                         std::to_string(num_parts));
  }
  if (result.part.size() != static_cast<std::size_t>(g.num_vertices())) {
    report_violation(kind, where, "assignment does not cover every vertex");
  }
  for (std::size_t v = 0; v < result.part.size(); ++v) {
    if (result.part[v] < 0 || result.part[v] >= num_parts) {
      report_violation(kind, where,
                       "part id out of range at vertex " + std::to_string(v));
    }
  }
  const std::int64_t cut = compute_edge_cut(g, result.part);
  if (cut != result.cut) {
    report_violation(kind, where,
                     "recorded cut " + std::to_string(result.cut) +
                         " does not match recount " + std::to_string(cut));
  }
  const double imbalance =
      compute_partition_imbalance(g, result.part, num_parts);
  // Exact comparison is intended: the recount runs the identical arithmetic
  // on the identical assignment, so any difference means the recorded value
  // was not derived from this partition.
  if (imbalance != result.imbalance) {  // ordo-lint: allow(float-eq)
    report_violation(kind, where,
                     "recorded imbalance does not match recount");
  }
}

void validate_bisection_balance(const Graph& g, const PartitionResult& result,
                                double tolerance, const std::string& where) {
  (void)tolerance;
  if (g.num_vertices() < 2) return;
  const ViolationKind kind = ViolationKind::kPartition;
  // Imbalance is max part weight over average part weight, so it is >= 1 by
  // construction and reaches 2 exactly when one side is empty. A tighter
  // bound (1 + 2*tolerance) holds on well-conditioned graphs — the seed's
  // partition tests assert it there — but the multilevel scheme cannot
  // promise it universally: the coarsest level's vertex granularity can
  // exceed any fixed tolerance. The universal contract is that a bisection
  // actually bisects.
  if (result.imbalance < 1.0) {
    report_violation(kind, where,
                     "recorded imbalance " + std::to_string(result.imbalance) +
                         " is below 1 (impossible for max/average)");
  }
  std::int64_t weight0 = 0;
  std::int64_t weight1 = 0;
  for (std::size_t v = 0; v < result.part.size(); ++v) {
    (result.part[v] == 0 ? weight0 : weight1) +=
        g.vertex_weight(static_cast<index_t>(v));
  }
  if (weight0 == 0 || weight1 == 0) {
    report_violation(kind, where,
                     "degenerate bisection: one side is empty (weights " +
                         std::to_string(weight0) + " / " +
                         std::to_string(weight1) + ")");
  }
}

void validate_hypergraph_partition(const Hypergraph& h,
                                   const PartitionResult& result,
                                   index_t num_parts,
                                   const std::string& where) {
  const ViolationKind kind = ViolationKind::kPartition;
  if (result.num_parts != num_parts) {
    report_violation(kind, where,
                     "recorded num_parts " + std::to_string(result.num_parts) +
                         " does not match requested " +
                         std::to_string(num_parts));
  }
  if (result.part.size() != static_cast<std::size_t>(h.num_vertices())) {
    report_violation(kind, where, "assignment does not cover every vertex");
  }
  for (std::size_t v = 0; v < result.part.size(); ++v) {
    if (result.part[v] < 0 || result.part[v] >= num_parts) {
      report_violation(kind, where,
                       "part id out of range at vertex " + std::to_string(v));
    }
  }
  const std::int64_t cut = compute_cut_nets(h, result.part);
  if (cut != result.cut) {
    report_violation(kind, where,
                     "recorded cut-net count " + std::to_string(result.cut) +
                         " does not match recount " + std::to_string(cut));
  }
  const double imbalance =
      compute_partition_imbalance(h, result.part, num_parts);
  // Exact comparison is intended, as in validate_partition: the recount
  // runs the identical arithmetic on the identical assignment.
  if (imbalance != result.imbalance) {  // ordo-lint: allow(float-eq)
    report_violation(kind, where,
                     "recorded imbalance does not match recount");
  }
}

void validate_reordering_result(const CsrMatrix& a, const Ordering& ordering,
                                const std::string& where) {
  validate_permutation_raw(ordering.row_perm, a.num_rows(),
                           where + " (row_perm)");
  validate_permutation_raw(ordering.col_perm, a.num_cols(),
                           where + " (col_perm)");
  if (ordering.symmetric && ordering.row_perm != ordering.col_perm) {
    report_violation(ViolationKind::kOrdering, where,
                     "symmetric ordering must use one permutation for rows "
                     "and columns");
  }
}

void validate_reordered_matrix(const CsrMatrix& original,
                               const CsrMatrix& reordered,
                               const std::string& where) {
  const ViolationKind kind = ViolationKind::kOrdering;
  if (reordered.num_rows() != original.num_rows() ||
      reordered.num_cols() != original.num_cols()) {
    report_violation(kind, where, "permuting changed the matrix shape");
  }
  if (reordered.num_nonzeros() != original.num_nonzeros()) {
    report_violation(kind, where,
                     "permuting changed the nonzero count (" +
                         std::to_string(original.num_nonzeros()) + " -> " +
                         std::to_string(reordered.num_nonzeros()) + ")");
  }
}

}  // namespace ordo::check
