// Registry and dispatch for the reordering algorithms.
#include "reorder/reordering.hpp"

#include <algorithm>

#include "check/check.hpp"
#include "obs/obs.hpp"

namespace ordo {
namespace {

Permutation degree_sort_ordering(const CsrMatrix& a) {
  Permutation perm = identity_permutation(a.num_rows());
  std::stable_sort(perm.begin(), perm.end(), [&](index_t x, index_t y) {
    return a.row_nonzeros(x) < a.row_nonzeros(y);
  });
  return perm;
}

}  // namespace

Ordering compute_ordering(const CsrMatrix& a, OrderingKind kind,
                          const ReorderOptions& options) {
  require(a.is_square(), "compute_ordering: matrix must be square");
  // Phase-granular instrumentation: one span plus one wall-time histogram
  // sample per ordering computation (the Table 5 quantity, observed).
  obs::Phase phase(
      obs::Phase::Parts()
          .span("reorder/" + ordering_name(kind))
          .histogram("reorder." + ordering_name(kind) + ".seconds"));
  Ordering result;
  result.symmetric = true;
  switch (kind) {
    case OrderingKind::kOriginal:
      result.row_perm = identity_permutation(a.num_rows());
      break;
    case OrderingKind::kRcm:
      result.row_perm = rcm_ordering(a);
      break;
    case OrderingKind::kAmd:
      result.row_perm = amd_ordering(a);
      break;
    case OrderingKind::kNd:
      result.row_perm = nd_ordering(a, options);
      break;
    case OrderingKind::kGp:
      result.row_perm = gp_ordering(a, options);
      break;
    case OrderingKind::kHp:
      result.row_perm = hp_ordering(a, options);
      break;
    case OrderingKind::kGray:
      result.row_perm = gray_row_ordering(a, options);
      result.symmetric = false;
      break;
    case OrderingKind::kSbd: {
      const auto [rows, cols] = sbd_ordering(a, options);
      result.row_perm = rows;
      result.col_perm = cols;
      result.symmetric = false;
      ORDO_CHECK(validate_reordering_result(
          a, result, "compute_ordering(" + ordering_name(kind) + ")"));
      return result;
    }
    case OrderingKind::kKing:
      result.row_perm = king_ordering(a);
      break;
    case OrderingKind::kSimilarity:
      result.row_perm = similarity_ordering(a, options.seed);
      break;
    case OrderingKind::kRandom:
      result.row_perm = random_permutation(a.num_rows(), options.seed);
      break;
    case OrderingKind::kDegreeSort:
      result.row_perm = degree_sort_ordering(a);
      break;
  }
  result.col_perm = result.symmetric ? result.row_perm
                                     : identity_permutation(a.num_cols());
  // Contract: whatever the algorithm did, the result must be a bijection on
  // the rows (and columns) — a silently non-bijective permutation corrupts
  // every downstream bandwidth/profile/GFLOPS figure.
  ORDO_CHECK(validate_reordering_result(
      a, result, "compute_ordering(" + ordering_name(kind) + ")"));
  return result;
}

std::vector<Ordering> compute_gp_orderings(
    const CsrMatrix& a, const std::vector<index_t>& part_counts,
    const ReorderOptions& options) {
  obs::Phase phase(obs::Phase::Parts().span("reorder/GP").histogram(
      "reorder.GP.shared_seconds"));
  std::vector<Permutation> perms = gp_orderings(a, part_counts, options);
  phase.close();
  std::vector<Ordering> orderings;
  for (Permutation& perm : perms) {
    Ordering ordering;
    ordering.row_perm = std::move(perm);
    ordering.col_perm = ordering.row_perm;
    ORDO_CHECK(
        validate_reordering_result(a, ordering, "compute_gp_orderings"));
    orderings.push_back(std::move(ordering));
  }
  return orderings;
}

CsrMatrix apply_ordering(const CsrMatrix& a, const Ordering& ordering) {
  if (ordering.symmetric) return permute_symmetric(a, ordering.row_perm);
  // Unsymmetric orderings carry independent row and column permutations
  // (Gray's column permutation is the identity; SBD's is not).
  if (static_cast<index_t>(ordering.col_perm.size()) == a.num_cols() &&
      is_identity_permutation(ordering.col_perm)) {
    return permute_rows(a, ordering.row_perm);
  }
  return permute(a, ordering.row_perm, ordering.col_perm);
}

std::string ordering_name(OrderingKind kind) {
  switch (kind) {
    case OrderingKind::kOriginal: return "Original";
    case OrderingKind::kRcm: return "RCM";
    case OrderingKind::kAmd: return "AMD";
    case OrderingKind::kNd: return "ND";
    case OrderingKind::kGp: return "GP";
    case OrderingKind::kHp: return "HP";
    case OrderingKind::kGray: return "Gray";
    case OrderingKind::kSbd: return "SBD";
    case OrderingKind::kKing: return "King";
    case OrderingKind::kSimilarity: return "TSPsim";
    case OrderingKind::kRandom: return "Random";
    case OrderingKind::kDegreeSort: return "DegSort";
  }
  return "?";
}

OrderingKind parse_ordering_name(const std::string& name) {
  for (OrderingKind kind :
       {OrderingKind::kOriginal, OrderingKind::kRcm, OrderingKind::kAmd,
        OrderingKind::kNd, OrderingKind::kGp, OrderingKind::kHp,
        OrderingKind::kGray, OrderingKind::kSbd, OrderingKind::kKing,
        OrderingKind::kSimilarity, OrderingKind::kRandom,
        OrderingKind::kDegreeSort}) {
    if (ordering_name(kind) == name) return kind;
  }
  throw invalid_argument_error("parse_ordering_name: unknown ordering " +
                               name);
}

std::vector<OrderingKind> study_orderings() {
  return {OrderingKind::kOriginal, OrderingKind::kRcm, OrderingKind::kAmd,
          OrderingKind::kNd,       OrderingKind::kGp,  OrderingKind::kHp,
          OrderingKind::kGray};
}

std::vector<OrderingKind> table1_orderings() {
  return {OrderingKind::kRcm, OrderingKind::kAmd, OrderingKind::kNd,
          OrderingKind::kGp,  OrderingKind::kHp,  OrderingKind::kGray};
}

}  // namespace ordo
