// Cross-module property tests: invariants that tie the subsystems together,
// swept over seeds with parameterized gtest.
#include <gtest/gtest.h>

#include <random>

#include "cholesky/cholesky.hpp"
#include "features/features.hpp"
#include "perfmodel/stack_distance.hpp"
#include "reorder/reordering.hpp"
#include "sparse/csr_ops.hpp"
#include "spmv/spmv.hpp"
#include "test_util.hpp"

namespace ordo {
namespace {

using testing::grid_laplacian_2d;
using testing::random_square;
using testing::random_symmetric;

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededProperty, SpmvCommutesWithSymmetricPermutation) {
  // For B = P A Pᵀ: B (P x) == P (A x). This couples the permutation code,
  // the CSR builders and every kernel.
  const std::uint64_t seed = GetParam();
  const CsrMatrix a = random_symmetric(120, 4.0, seed);
  const Permutation perm = random_permutation(a.num_rows(), seed + 1);
  const CsrMatrix b = permute_symmetric(a, perm);

  std::vector<value_t> x(static_cast<std::size_t>(a.num_cols()));
  std::mt19937_64 rng(seed + 2);
  std::uniform_real_distribution<value_t> dist(-1.0, 1.0);
  for (auto& v : x) v = dist(rng);
  std::vector<value_t> px(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    px[i] = x[static_cast<std::size_t>(perm[i])];
  }

  std::vector<value_t> y(x.size()), py_expected(x.size()), py(x.size());
  spmv_serial(a, x, y);
  for (std::size_t i = 0; i < y.size(); ++i) {
    py_expected[i] = y[static_cast<std::size_t>(perm[i])];
  }
  spmv_2d(b, px, py, partition_nonzeros_even(b, 7));
  for (std::size_t i = 0; i < py.size(); ++i) {
    EXPECT_NEAR(py[i], py_expected[i], 1e-11);
  }
}

TEST_P(SeededProperty, CholeskyFillInvariantUnderEtreePostorder) {
  // Postordering the elimination tree relabels columns without changing the
  // factor's size — the property the AMD implementation relies on.
  const std::uint64_t seed = GetParam();
  const CsrMatrix a =
      with_full_diagonal(random_symmetric(100, 3.0, seed), 4.0);
  const std::int64_t fill_before = cholesky_factor_nonzeros(a);
  const Permutation post = tree_postorder(elimination_tree(a));
  const CsrMatrix b = permute_symmetric(a, post);
  EXPECT_EQ(cholesky_factor_nonzeros(b), fill_before);
}

TEST_P(SeededProperty, OrderingsAreDeterministicInSeed) {
  const std::uint64_t seed = GetParam();
  const CsrMatrix a = random_symmetric(120, 4.0, seed);
  ReorderOptions options;
  options.gp_parts = 8;
  options.hp_parts = 8;
  options.seed = seed;
  for (OrderingKind kind : study_orderings()) {
    const Ordering first = compute_ordering(a, kind, options);
    const Ordering second = compute_ordering(a, kind, options);
    EXPECT_EQ(first.row_perm, second.row_perm) << ordering_name(kind);
    EXPECT_EQ(first.col_perm, second.col_perm) << ordering_name(kind);
  }
}

TEST_P(SeededProperty, StackDistanceMissesMonotoneInCapacity) {
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<index_t> dist(0, 99);
  std::vector<index_t> stream(2000);
  for (auto& line : stream) line = dist(rng);
  const ReuseProfile profile = analyze_reuse(stream, 100);
  std::int64_t previous = count_misses(
      profile, 0, static_cast<offset_t>(stream.size()), 1);
  for (index_t capacity : {2, 4, 8, 16, 32, 64, 128}) {
    const std::int64_t misses = count_misses(
        profile, 0, static_cast<offset_t>(stream.size()), capacity);
    EXPECT_LE(misses, previous) << "capacity " << capacity;
    previous = misses;
  }
  // At capacity >= distinct lines, only cold misses remain.
  std::vector<bool> seen(100, false);
  std::int64_t distinct = 0;
  for (index_t line : stream) {
    if (!seen[static_cast<std::size_t>(line)]) {
      seen[static_cast<std::size_t>(line)] = true;
      ++distinct;
    }
  }
  EXPECT_EQ(count_misses(profile, 0, static_cast<offset_t>(stream.size()),
                         10000),
            distinct);
}

TEST_P(SeededProperty, FeaturesInvariantUnderIdentityOrdering) {
  const std::uint64_t seed = GetParam();
  const CsrMatrix a = random_square(90, 4.0, seed);
  const CsrMatrix b =
      apply_ordering(a, compute_ordering(a, OrderingKind::kOriginal));
  EXPECT_EQ(a, b);
  const FeatureReport fa = compute_features(a, 16);
  const FeatureReport fb = compute_features(b, 16);
  EXPECT_EQ(fa.bandwidth, fb.bandwidth);
  EXPECT_EQ(fa.profile, fb.profile);
  EXPECT_EQ(fa.off_diagonal_nonzeros, fb.off_diagonal_nonzeros);
}

TEST_P(SeededProperty, FenwickMatchesNaivePrefixSums) {
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> value(-5, 5);
  std::uniform_int_distribution<std::size_t> position(0, 63);
  FenwickTree tree(64);
  std::vector<std::int64_t> naive(64, 0);
  for (int op = 0; op < 200; ++op) {
    const std::size_t i = position(rng);
    const int delta = value(rng);
    tree.add(i, delta);
    naive[i] += delta;
    const std::size_t lo = position(rng);
    const std::size_t hi = position(rng);
    if (lo <= hi) {
      std::int64_t expected = 0;
      for (std::size_t k = lo; k < hi; ++k) expected += naive[k];
      EXPECT_EQ(tree.range_sum(lo, hi), expected);
    }
  }
}

TEST_P(SeededProperty, SymmetrizeIsIdempotent) {
  const std::uint64_t seed = GetParam();
  const CsrMatrix a = random_square(80, 3.0, seed);
  const CsrMatrix s = symmetrize(a);
  const CsrMatrix ss = symmetrize(s);
  // Pattern is stable (values double, pattern identical).
  EXPECT_TRUE(std::ranges::equal(s.row_ptr(), ss.row_ptr()));
  EXPECT_TRUE(std::ranges::equal(s.col_idx(), ss.col_idx()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace ordo
