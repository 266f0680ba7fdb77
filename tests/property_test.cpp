// Cross-module property tests: invariants that tie the subsystems together,
// swept over seeds with parameterized gtest.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <span>
#include <utility>
#include <vector>

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

// The reuse profile the slow way: for each access, walk back to the
// previous access of its line and count the distinct lines in between.
ReuseProfile plain_reuse_profile(const std::vector<index_t>& lines) {
  ReuseProfile profile;
  for (std::size_t t = 0; t < lines.size(); ++t) {
    std::set<index_t> between;
    std::int32_t prev = -1;
    for (std::size_t s = t; s-- > 0;) {
      if (lines[s] == lines[t]) {
        prev = static_cast<std::int32_t>(s);
        break;
      }
      between.insert(lines[s]);
    }
    profile.previous_access.push_back(prev);
    profile.stack_distance.push_back(
        prev < 0 ? ReuseProfile::kCold : static_cast<index_t>(between.size()));
  }
  return profile;
}

// analyze_reuse equals the plain reference access for access, and every
// segment's miss count equals an LRU simulation of that segment alone.
void expect_reuse_matches_references(const std::vector<index_t>& lines,
                                     index_t num_lines) {
  const ReuseProfile profile = analyze_reuse(lines, num_lines);
  const ReuseProfile plain = plain_reuse_profile(lines);
  EXPECT_EQ(profile.stack_distance, plain.stack_distance);
  EXPECT_EQ(profile.previous_access, plain.previous_access);
  const offset_t n = static_cast<offset_t>(lines.size());
  const std::vector<index_t> capacities{1, 2, 3, 8, 64, 100000};
  for (const auto& [begin, end] :
       std::vector<std::pair<offset_t, offset_t>>{
           {0, n}, {0, n / 2}, {n / 3, n}, {n / 4, n / 4 + 1}, {n, n}}) {
    if (end > n) continue;
    std::vector<std::int64_t> misses(capacities.size());
    count_misses(profile, begin, end, capacities, misses);
    const std::span<const index_t> segment(lines.data() + begin,
                                           lines.data() + end);
    for (std::size_t c = 0; c < capacities.size(); ++c) {
      EXPECT_EQ(misses[c], simulate_lru_misses(segment, capacities[c]))
          << "segment [" << begin << ", " << end << ") capacity "
          << capacities[c];
      EXPECT_EQ(misses[c],
                count_misses(profile, begin, end, capacities[c]));
    }
  }
}

TEST(ReuseProfile, MatchesReferencesOnEdgeStreams) {
  // A repeat at t = 0 has no access before it: the first access is cold.
  expect_reuse_matches_references({5, 5, 5, 2, 5, 5, 2, 2}, 6);
  // Immediate repeats in runs of every length up to 5.
  std::vector<index_t> runs;
  for (index_t i = 0; i < 400; ++i) {
    runs.insert(runs.end(), static_cast<std::size_t>(i % 5 + 1), i * 7 % 13);
  }
  expect_reuse_matches_references(runs, 13);
  // All distinct lines: every access cold.
  std::vector<index_t> distinct(700);
  for (index_t i = 0; i < 700; ++i) distinct[static_cast<std::size_t>(i)] = i;
  expect_reuse_matches_references(distinct, 700);
  // One line only: a single run.
  expect_reuse_matches_references(std::vector<index_t>(300, 0), 1);
  // One access, and none.
  expect_reuse_matches_references({0}, 1);
  expect_reuse_matches_references({}, 1);
}

TEST_P(SeededProperty, ReuseProfileMatchesReferences) {
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  // Few lines keep the live slots few, so the long stream repacks them many
  // times; the wide universe never does.
  for (const index_t num_lines : {2, 5, 40, 3000}) {
    std::uniform_int_distribution<index_t> dist(0, num_lines - 1);
    std::uniform_int_distribution<int> run(1, 4);
    std::vector<index_t> stream;
    while (stream.size() < 2500) {
      stream.insert(stream.end(), static_cast<std::size_t>(run(rng)),
                    dist(rng));
    }
    expect_reuse_matches_references(stream, num_lines);
  }
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
