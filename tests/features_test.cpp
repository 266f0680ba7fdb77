// Tests for the order-sensitive matrix features of Section 3.2.
#include <gtest/gtest.h>

#include "features/features.hpp"
#include "reorder/reordering.hpp"
#include "sparse/csr_ops.hpp"
#include "spmv/spmv.hpp"
#include "test_util.hpp"

namespace ordo {
namespace {

using testing::grid_laplacian_2d;

CsrMatrix tridiagonal(index_t n) {
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 2.0);
    if (i + 1 < n) coo.add_symmetric(i, i + 1, -1.0);
  }
  return CsrMatrix::from_coo(coo);
}

TEST(Bandwidth, TridiagonalIsOne) {
  EXPECT_EQ(matrix_bandwidth(tridiagonal(20)), 1);
}

TEST(Bandwidth, DiagonalIsZero) {
  CooMatrix coo(5, 5);
  for (index_t i = 0; i < 5; ++i) coo.add(i, i, 1.0);
  EXPECT_EQ(matrix_bandwidth(CsrMatrix::from_coo(coo)), 0);
}

TEST(Bandwidth, SingleFarEntryDominates) {
  CooMatrix coo(100, 100);
  coo.add(0, 0, 1.0);
  coo.add(2, 90, 1.0);
  EXPECT_EQ(matrix_bandwidth(CsrMatrix::from_coo(coo)), 88);
}

TEST(Bandwidth, GridEqualsSide) {
  // y-major 5-point grid: farthest stencil neighbour is nx away.
  EXPECT_EQ(matrix_bandwidth(grid_laplacian_2d(13, 7)), 13);
}

TEST(Profile, TridiagonalIsNMinusOne) {
  // Every row except the first contributes distance 1.
  EXPECT_EQ(matrix_profile(tridiagonal(20)), 19);
}

TEST(Profile, UpperTriangularRowsContributeZero) {
  CooMatrix coo(6, 6);
  for (index_t i = 0; i < 6; ++i) {
    coo.add(i, i, 1.0);
    if (i + 2 < 6) coo.add(i, i + 2, 1.0);  // strictly upper entries only
  }
  EXPECT_EQ(matrix_profile(CsrMatrix::from_coo(coo)), 0);
}

TEST(OffDiagonalCount, SingleBlockIsZero) {
  const CsrMatrix a = grid_laplacian_2d(8, 8);
  EXPECT_EQ(off_diagonal_block_nonzeros(a, 1), 0);
}

TEST(OffDiagonalCount, FullySeparatedBlocksAreZero) {
  // Two disconnected dense blocks aligned with a 2-way blocking.
  const index_t half = 8;
  CooMatrix coo(2 * half, 2 * half);
  for (index_t b = 0; b < 2; ++b) {
    for (index_t i = 0; i < half; ++i) {
      for (index_t j = 0; j < half; ++j) {
        coo.add(b * half + i, b * half + j, 1.0);
      }
    }
  }
  EXPECT_EQ(off_diagonal_block_nonzeros(CsrMatrix::from_coo(coo), 2), 0);
}

TEST(OffDiagonalCount, AntiDiagonalAllOff) {
  const index_t n = 16;
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) coo.add(i, n - 1 - i, 1.0);
  // With 4 blocks, every entry except those in the two middle rows of each
  // anti-diagonal block crossing... simpler: with n blocks (1 row each),
  // every entry with i != n-1-i is off-diagonal.
  EXPECT_EQ(off_diagonal_block_nonzeros(CsrMatrix::from_coo(coo), n), n);
}

TEST(OffDiagonalCount, MatchesEdgeCutIntuition) {
  // Off-diagonal count never increases when the blocking coarsens.
  const CsrMatrix a = testing::random_symmetric(256, 5.0, 7);
  std::int64_t previous = off_diagonal_block_nonzeros(a, 256);
  for (index_t blocks : {128, 64, 16, 4, 1}) {
    const std::int64_t current = off_diagonal_block_nonzeros(a, blocks);
    EXPECT_LE(current, previous) << blocks;
    previous = current;
  }
}

TEST(Imbalance, PerfectlyEvenMatrixIsOne) {
  const CsrMatrix a = tridiagonal(64);
  // Not exactly 1 (end rows have 2 nonzeros), but close.
  EXPECT_NEAR(load_imbalance_1d(a, 4), 1.0, 0.05);
  EXPECT_NEAR(load_imbalance_2d(a, 4), 1.0, 0.05);
}

TEST(Imbalance, SkewedMatrixLargeUnder1d) {
  const index_t n = 64;
  CooMatrix coo(n, n);
  for (index_t j = 0; j < n; ++j) coo.add(0, j, 1.0);  // one dense row
  coo.add(n - 1, n - 1, 1.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  EXPECT_GT(load_imbalance_1d(a, 8), 6.0);
  EXPECT_NEAR(load_imbalance_2d(a, 8), 1.0, 0.25);
}

TEST(Imbalance, MatchesPaperDefinition) {
  // imbalance = max / mean over threads (Section 3.2).
  const CsrMatrix a = testing::random_square(101, 3.0, 5);
  const auto counts = nnz_per_thread_1d(a, 7);
  offset_t max_count = 0;
  for (offset_t c : counts) max_count = std::max(max_count, c);
  const double expected = static_cast<double>(max_count) /
                          (static_cast<double>(a.num_nonzeros()) / 7.0);
  EXPECT_DOUBLE_EQ(load_imbalance_1d(a, 7), expected);
}

TEST(FeatureReport, BundlesAllFeatures) {
  const CsrMatrix a = grid_laplacian_2d(10, 10);
  const FeatureReport report = compute_features(a, 4);
  EXPECT_EQ(report.bandwidth, matrix_bandwidth(a));
  EXPECT_EQ(report.profile, matrix_profile(a));
  EXPECT_EQ(report.off_diagonal_nonzeros, off_diagonal_block_nonzeros(a, 4));
  EXPECT_DOUBLE_EQ(report.imbalance_1d, load_imbalance_1d(a, 4));
}

TEST(Features, RcmReducesBandwidthAndProfileOnShuffledGrid) {
  const CsrMatrix a = grid_laplacian_2d(16, 16);
  const CsrMatrix shuffled =
      permute_symmetric(a, random_permutation(a.num_rows(), 3));
  const CsrMatrix rcm = apply_ordering(
      shuffled, compute_ordering(shuffled, OrderingKind::kRcm));
  EXPECT_LT(matrix_bandwidth(rcm), matrix_bandwidth(shuffled) / 2);
  EXPECT_LT(matrix_profile(rcm), matrix_profile(shuffled) / 2);
}

TEST(Features, ProfileBeyondInt32DoesNotOverflow) {
  // Regression test for the 64-bit index audit: every row i > 0 stores
  // {0, i}, so the profile is 0 + 1 + ... + (n-1) = n(n-1)/2 ≈ 2.45e9 —
  // past INT32_MAX with only ~140k nonzeros. A 32-bit accumulator anywhere
  // in the profile path would wrap this value.
  const index_t n = 70000;
  CsrArray<offset_t> row_ptr;
  row_ptr.reserve(static_cast<std::size_t>(n) + 1);
  CsrArray<index_t> col_idx;
  col_idx.reserve(2 * static_cast<std::size_t>(n));
  row_ptr.push_back(0);
  col_idx.push_back(0);  // row 0: diagonal only
  row_ptr.push_back(1);
  for (index_t i = 1; i < n; ++i) {
    col_idx.push_back(0);
    col_idx.push_back(i);
    row_ptr.push_back(static_cast<offset_t>(col_idx.size()));
  }
  CsrArray<value_t> values(col_idx.size(), 1.0);
  const CsrMatrix a(n, n, std::move(row_ptr), std::move(col_idx),
                    std::move(values));

  const std::int64_t expected =
      static_cast<std::int64_t>(n) * (n - 1) / 2;
  ASSERT_GT(expected, static_cast<std::int64_t>(2147483647));
  EXPECT_EQ(matrix_profile(a), expected);
  EXPECT_EQ(matrix_bandwidth(a), n - 1);
}

TEST(Features, GpReducesOffDiagonalCount) {
  const CsrMatrix a = testing::random_symmetric(400, 4.0, 11);
  ReorderOptions options;
  options.gp_parts = 8;
  const CsrMatrix gp =
      apply_ordering(a, compute_ordering(a, OrderingKind::kGp, options));
  EXPECT_LT(off_diagonal_block_nonzeros(gp, 8),
            off_diagonal_block_nonzeros(a, 8));
}

}  // namespace
}  // namespace ordo
