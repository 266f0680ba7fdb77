// Negative-path tests for the ordo::check invariant contracts: every
// validator must reject a deliberately corrupted structure with a typed
// InvariantViolation carrying the right ViolationKind, and every rejection
// must increment the per-class obs counter. Positive paths (valid inputs
// pass silently) ride along. This suite carries the `check` ctest label:
// run just it with `ctest -L check`.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/invariants.hpp"
#include "cholesky/cholesky.hpp"
#include "graph/graph.hpp"
#include "partition/hypergraph.hpp"
#include "partition/partitioning.hpp"
#include "reorder/reordering.hpp"
#include "sparse/csr.hpp"
#include "test_util.hpp"

namespace ordo {
namespace {

using check::InvariantViolation;
using check::ViolationKind;
using testing::grid_laplacian_2d;

// Violations only count when the obs registry is compiled in (it is in
// every default build; violation_count reports 0 otherwise).
#if defined(ORDO_OBS_ENABLED)
constexpr std::int64_t kCounterDelta = 1;
#else
constexpr std::int64_t kCounterDelta = 0;
#endif

// Asserts `statement` throws InvariantViolation of class `kind` and that
// the class's obs counter advanced by exactly one.
#define EXPECT_VIOLATION(statement, expected_kind)                         \
  do {                                                                     \
    const std::int64_t before = check::violation_count(expected_kind);     \
    try {                                                                  \
      statement;                                                           \
      FAIL() << #statement << " did not throw";                            \
    } catch (const InvariantViolation& e) {                                \
      EXPECT_EQ(e.kind(), expected_kind) << e.what();                      \
      EXPECT_FALSE(e.where().empty());                                     \
    }                                                                      \
    EXPECT_EQ(check::violation_count(expected_kind), before + kCounterDelta) \
        << "counter for " << check::violation_kind_name(expected_kind);    \
  } while (0)

CsrMatrix small_matrix() {
  // 3x3 symmetric pattern with an off-diagonal pair.
  return CsrMatrix(3, 3, {0, 2, 4, 5}, {0, 1, 0, 1, 2},
                   {4.0, -1.0, -1.0, 4.0, 2.0});
}

TEST(CheckInvariants, ViolationKindNamesAreStable) {
  EXPECT_STREQ(check::violation_kind_name(ViolationKind::kCsr), "csr");
  EXPECT_STREQ(check::violation_kind_name(ViolationKind::kPermutation),
               "permutation");
  EXPECT_STREQ(check::violation_kind_name(ViolationKind::kGraph), "graph");
  EXPECT_STREQ(check::violation_kind_name(ViolationKind::kPartition),
               "partition");
  EXPECT_STREQ(check::violation_kind_name(ViolationKind::kOrdering),
               "ordering");
  EXPECT_STREQ(check::violation_kind_name(ViolationKind::kCholesky),
               "cholesky");
}

TEST(CheckInvariants, ViolationIsTypedAndCatchableAsInvalidArgument) {
  // The pipeline's error isolation catches InvariantViolation specifically;
  // pre-existing call sites catch invalid_argument_error. Both must work.
  try {
    check::report_violation(ViolationKind::kCsr, "here", "broken");
    FAIL() << "report_violation returned";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find("here"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("broken"), std::string::npos);
  }
}

// --- CSR -------------------------------------------------------------------

TEST(CheckInvariants, ValidCsrPasses) {
  const CsrMatrix a = small_matrix();
  check::validate_csr(a, "test");
  EXPECT_NO_THROW(check::validate_csr_raw(a.num_rows(), a.num_cols(),
                                          a.row_ptr(), a.col_idx(),
                                          a.values().size(), "test"));
}

TEST(CheckInvariants, CsrRejectsNonMonotoneRowPtr) {
  const std::vector<offset_t> row_ptr = {0, 3, 2, 5};
  const std::vector<index_t> col_idx = {0, 1, 2, 0, 1};
  EXPECT_VIOLATION(
      check::validate_csr_raw(3, 3, row_ptr, col_idx, 5, "test"),
      ViolationKind::kCsr);
}

TEST(CheckInvariants, CsrRejectsRowPtrNotStartingAtZero) {
  const std::vector<offset_t> row_ptr = {1, 2};
  const std::vector<index_t> col_idx = {0};
  EXPECT_VIOLATION(
      check::validate_csr_raw(1, 1, row_ptr, col_idx, 1, "test"),
      ViolationKind::kCsr);
}

TEST(CheckInvariants, CsrRejectsDuplicateColumnsInRow) {
  const std::vector<offset_t> row_ptr = {0, 2};
  const std::vector<index_t> col_idx = {1, 1};
  EXPECT_VIOLATION(
      check::validate_csr_raw(1, 3, row_ptr, col_idx, 2, "test"),
      ViolationKind::kCsr);
}

TEST(CheckInvariants, CsrRejectsUnsortedColumnsInRow) {
  const std::vector<offset_t> row_ptr = {0, 2};
  const std::vector<index_t> col_idx = {2, 0};
  EXPECT_VIOLATION(
      check::validate_csr_raw(1, 3, row_ptr, col_idx, 2, "test"),
      ViolationKind::kCsr);
}

TEST(CheckInvariants, CsrRejectsOutOfRangeColumn) {
  const std::vector<offset_t> row_ptr = {0, 1};
  const std::vector<index_t> col_idx = {5};
  EXPECT_VIOLATION(
      check::validate_csr_raw(1, 3, row_ptr, col_idx, 1, "test"),
      ViolationKind::kCsr);
}

TEST(CheckInvariants, CsrRejectsValueCountMismatch) {
  const std::vector<offset_t> row_ptr = {0, 1};
  const std::vector<index_t> col_idx = {0};
  EXPECT_VIOLATION(
      check::validate_csr_raw(1, 3, row_ptr, col_idx, 2, "test"),
      ViolationKind::kCsr);
}

TEST(CheckInvariants, CsrConstructorRoutesThroughTypedViolation) {
  // The constructor's validation (seed behaviour: throws
  // invalid_argument_error) now reports through the check layer, so the
  // exception is also an InvariantViolation and the counter advances.
  const std::int64_t before = check::violation_count(ViolationKind::kCsr);
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), invalid_argument_error);
  EXPECT_THROW(CsrMatrix(2, 2, {0, 3, 2}, {0, 1, 0}, {1.0, 1.0, 1.0}),
               InvariantViolation);
  EXPECT_EQ(check::violation_count(ViolationKind::kCsr),
            before + 2 * kCounterDelta);
}

// --- Permutation -----------------------------------------------------------

TEST(CheckInvariants, ValidPermutationPasses) {
  const Permutation perm = {2, 0, 1};
  EXPECT_NO_THROW(check::validate_permutation(perm, 3, "test"));
}

TEST(CheckInvariants, PermutationRejectsWrongLength) {
  const Permutation perm = {0, 1};
  EXPECT_VIOLATION(check::validate_permutation(perm, 3, "test"),
                   ViolationKind::kPermutation);
}

TEST(CheckInvariants, PermutationRejectsOutOfRangeImage) {
  const Permutation perm = {0, 3, 1};
  EXPECT_VIOLATION(check::validate_permutation(perm, 3, "test"),
                   ViolationKind::kPermutation);
}

TEST(CheckInvariants, PermutationRejectsRepeatedImage) {
  const Permutation perm = {0, 1, 1};
  EXPECT_VIOLATION(check::validate_permutation(perm, 3, "test"),
                   ViolationKind::kPermutation);
}

// --- Graph -----------------------------------------------------------------

TEST(CheckInvariants, ValidGraphPasses) {
  const Graph g = Graph::from_matrix(small_matrix());
  EXPECT_NO_THROW(check::validate_graph(g, "test"));
}

TEST(CheckInvariants, GraphRejectsAsymmetricAdjacency) {
  // Edge 0->1 with no mirror. The unchecked ctor accepts it (symmetry is a
  // from_matrix seam contract, not a storage invariant); validate_graph
  // must reject it.
  const Graph g(2, CsrArray<offset_t>{0, 1, 1}, CsrArray<index_t>{1});
  EXPECT_VIOLATION(check::validate_graph(g, "test"), ViolationKind::kGraph);
}

TEST(CheckInvariants, AdjacencyRejectsSelfLoop) {
  const std::vector<offset_t> adj_ptr = {0, 1, 2};
  const std::vector<index_t> adj = {0, 0};
  EXPECT_VIOLATION(
      check::validate_adjacency_raw(2, adj_ptr, adj, false, "test"),
      ViolationKind::kGraph);
}

TEST(CheckInvariants, AdjacencyRejectsNeighbourOutOfRange) {
  const std::vector<offset_t> adj_ptr = {0, 1, 2};
  const std::vector<index_t> adj = {1, 7};
  EXPECT_VIOLATION(
      check::validate_adjacency_raw(2, adj_ptr, adj, false, "test"),
      ViolationKind::kGraph);
}

TEST(CheckInvariants, SymmetricPatternRejectsAsymmetricMatrix) {
  const CsrMatrix a(2, 2, {0, 1, 1}, {1}, {1.0});
  EXPECT_VIOLATION(check::validate_symmetric_pattern(a, "test"),
                   ViolationKind::kCsr);
}

// --- Partition -------------------------------------------------------------

Graph path_graph(index_t n) {
  CsrArray<offset_t> adj_ptr(static_cast<std::size_t>(n) + 1, 0);
  CsrArray<index_t> adj;
  for (index_t v = 0; v < n; ++v) {
    if (v > 0) adj.push_back(v - 1);
    if (v + 1 < n) adj.push_back(v + 1);
    adj_ptr[static_cast<std::size_t>(v) + 1] =
        static_cast<offset_t>(adj.size());
  }
  return Graph(n, std::move(adj_ptr), std::move(adj));
}

PartitionResult consistent_bisection(const Graph& g,
                                     std::vector<index_t> part) {
  PartitionResult result;
  result.num_parts = 2;
  result.cut = compute_edge_cut(g, part);
  result.imbalance = compute_partition_imbalance(g, part, 2);
  result.part = std::move(part);
  return result;
}

TEST(CheckInvariants, ConsistentPartitionPasses) {
  const Graph g = path_graph(4);
  const PartitionResult result = consistent_bisection(g, {0, 0, 1, 1});
  EXPECT_NO_THROW(check::validate_partition(g, result, 2, "test"));
  EXPECT_NO_THROW(check::validate_bisection_balance(g, result, 0.05, "test"));
}

TEST(CheckInvariants, PartitionRejectsPartIdOutOfRange) {
  const Graph g = path_graph(4);
  PartitionResult result = consistent_bisection(g, {0, 0, 1, 1});
  result.part[2] = 5;
  EXPECT_VIOLATION(check::validate_partition(g, result, 2, "test"),
                   ViolationKind::kPartition);
}

TEST(CheckInvariants, PartitionRejectsAssignmentSizeMismatch) {
  const Graph g = path_graph(4);
  PartitionResult result = consistent_bisection(g, {0, 0, 1, 1});
  result.part.pop_back();
  EXPECT_VIOLATION(check::validate_partition(g, result, 2, "test"),
                   ViolationKind::kPartition);
}

TEST(CheckInvariants, PartitionRejectsMisreportedCut) {
  const Graph g = path_graph(4);
  PartitionResult result = consistent_bisection(g, {0, 0, 1, 1});
  result.cut += 1;
  EXPECT_VIOLATION(check::validate_partition(g, result, 2, "test"),
                   ViolationKind::kPartition);
}

TEST(CheckInvariants, PartitionRejectsMisreportedImbalance) {
  const Graph g = path_graph(4);
  PartitionResult result = consistent_bisection(g, {0, 0, 1, 1});
  result.imbalance += 0.25;
  EXPECT_VIOLATION(check::validate_partition(g, result, 2, "test"),
                   ViolationKind::kPartition);
}

TEST(CheckInvariants, BisectionBalanceRejectsEmptySide) {
  const Graph g = path_graph(4);
  const PartitionResult result = consistent_bisection(g, {0, 0, 0, 0});
  EXPECT_VIOLATION(check::validate_bisection_balance(g, result, 0.05, "test"),
                   ViolationKind::kPartition);
}

TEST(CheckInvariants, BisectionBalanceRejectsImpossibleImbalance) {
  const Graph g = path_graph(4);
  PartitionResult result = consistent_bisection(g, {0, 0, 1, 1});
  result.imbalance = 0.5;  // ordo-lint: allow(float-eq)
  EXPECT_VIOLATION(check::validate_bisection_balance(g, result, 0.05, "test"),
                   ViolationKind::kPartition);
}

TEST(CheckInvariants, HypergraphPartitionRejectsMisreportedCut) {
  // Two nets over four vertices; the bisection {0,0,1,1} cuts only the
  // second net.
  Hypergraph h(4, {0, 2, 4}, {0, 1, 1, 2}, {}, {});
  PartitionResult result;
  result.num_parts = 2;
  result.part = {0, 0, 1, 1};
  result.cut = compute_cut_nets(h, result.part);
  result.imbalance = 1.0;
  EXPECT_NO_THROW(check::validate_hypergraph_partition(h, result, 2, "test"));
  result.cut += 1;
  EXPECT_VIOLATION(check::validate_hypergraph_partition(h, result, 2, "test"),
                   ViolationKind::kPartition);
}

TEST(CheckInvariants, HypergraphPartitionRejectsMisreportedImbalance) {
  // Four unit-weight vertices split 3 / 1: the heaviest part is 1.5 times
  // the average.
  Hypergraph h(4, {0, 2, 4}, {0, 1, 1, 2}, {}, {});
  PartitionResult result;
  result.num_parts = 2;
  result.part = {0, 0, 0, 1};
  result.cut = compute_cut_nets(h, result.part);
  result.imbalance = compute_partition_imbalance(h, result.part, 2);
  EXPECT_NO_THROW(check::validate_hypergraph_partition(h, result, 2, "test"));
  result.imbalance = 1.0;
  EXPECT_VIOLATION(check::validate_hypergraph_partition(h, result, 2, "test"),
                   ViolationKind::kPartition);
}

// --- Ordering --------------------------------------------------------------

TEST(CheckInvariants, ReorderingResultRejectsNonBijectiveRowPerm) {
  const CsrMatrix a = small_matrix();
  Ordering ordering;
  ordering.row_perm = {0, 0, 2};
  ordering.col_perm = {0, 1, 2};
  ordering.symmetric = false;
  EXPECT_VIOLATION(check::validate_reordering_result(a, ordering, "test"),
                   ViolationKind::kPermutation);
}

TEST(CheckInvariants, ReorderingResultRejectsSymmetricWithSplitPerms) {
  const CsrMatrix a = small_matrix();
  Ordering ordering;
  ordering.row_perm = {2, 1, 0};
  ordering.col_perm = {0, 1, 2};
  ordering.symmetric = true;
  EXPECT_VIOLATION(check::validate_reordering_result(a, ordering, "test"),
                   ViolationKind::kOrdering);
}

TEST(CheckInvariants, RealOrderingsPassValidation) {
  const CsrMatrix a = grid_laplacian_2d(6, 6);
  for (OrderingKind kind : study_orderings()) {
    const Ordering ordering = compute_ordering(a, kind);
    EXPECT_NO_THROW(
        check::validate_reordering_result(a, ordering, ordering_name(kind)));
    const CsrMatrix permuted = apply_ordering(a, ordering);
    EXPECT_NO_THROW(
        check::validate_reordered_matrix(a, permuted, ordering_name(kind)));
  }
}

TEST(CheckInvariants, ReorderedMatrixRejectsNnzChange) {
  const CsrMatrix a = small_matrix();
  const CsrMatrix wrong(3, 3, {0, 1, 2, 3}, {0, 1, 2}, {1.0, 1.0, 1.0});
  EXPECT_VIOLATION(check::validate_reordered_matrix(a, wrong, "test"),
                   ViolationKind::kOrdering);
}

// --- Elimination tree ------------------------------------------------------

TEST(CheckInvariants, EliminationTreeRejectsBackwardParent) {
  const std::vector<index_t> parent = {1, 0};  // parent of 1 precedes it
  EXPECT_VIOLATION(check::validate_elimination_tree_raw(parent, "test"),
                   ViolationKind::kCholesky);
}

TEST(CheckInvariants, EliminationTreeAcceptsRealTree) {
  const CsrMatrix a = grid_laplacian_2d(5, 5);
  const std::vector<index_t> parent = elimination_tree(a);
  EXPECT_NO_THROW(check::validate_elimination_tree_raw(parent, "test"));
}

// --- Build-type wiring -----------------------------------------------------

TEST(CheckInvariants, SeamMacroMatchesBuildConfiguration) {
#if defined(ORDO_CHECK_INVARIANTS_ENABLED)
  EXPECT_TRUE(check::invariant_checks_enabled());
#else
  EXPECT_FALSE(check::invariant_checks_enabled());
#endif
}

}  // namespace
}  // namespace ordo
