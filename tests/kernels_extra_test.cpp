// Tests for the extension kernels: merge-path SpMV, symmetric-lower SpMV and
// the transpose products, validated against the serial reference.
#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "sparse/csr_ops.hpp"
#include "spmv/kernels_extra.hpp"
#include "spmv/spmv.hpp"
#include "test_util.hpp"

namespace ordo {
namespace {

using testing::grid_laplacian_2d;
using testing::random_square;
using testing::random_symmetric;

std::vector<value_t> random_vector(index_t n, std::uint64_t seed) {
  std::vector<value_t> x(static_cast<std::size_t>(n));
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<value_t> dist(-1.0, 1.0);
  for (auto& v : x) v = dist(rng);
  return x;
}

TEST(MergePath, PartitionCoversEverything) {
  const CsrMatrix a = random_square(333, 5.0, 4);
  for (int threads : {1, 3, 8, 64}) {
    const MergePathPartition p = partition_merge_path(a, threads);
    EXPECT_EQ(p.row_begin.front(), 0);
    EXPECT_EQ(p.nnz_begin.front(), 0);
    EXPECT_EQ(p.row_begin.back(), a.num_rows());
    EXPECT_EQ(p.nnz_begin.back(), a.num_nonzeros());
    for (int t = 0; t < threads; ++t) {
      EXPECT_LE(p.row_begin[static_cast<std::size_t>(t)],
                p.row_begin[static_cast<std::size_t>(t) + 1]);
      EXPECT_LE(p.nnz_begin[static_cast<std::size_t>(t)],
                p.nnz_begin[static_cast<std::size_t>(t) + 1]);
      // (rows + nnz) work per thread differs by at most one diagonal step.
      const std::int64_t work =
          (p.row_begin[static_cast<std::size_t>(t) + 1] -
           p.row_begin[static_cast<std::size_t>(t)]) +
          (p.nnz_begin[static_cast<std::size_t>(t) + 1] -
           p.nnz_begin[static_cast<std::size_t>(t)]);
      const std::int64_t ideal =
          (static_cast<std::int64_t>(a.num_rows()) + a.num_nonzeros()) /
          threads;
      EXPECT_LE(std::abs(work - ideal), 2) << "thread " << t;
    }
  }
}

TEST(MergePath, BalancesEmptyRowHeavyMatrixBetterThanNnzSplit) {
  // 10000 empty rows followed by a block of dense rows: the nonzero split
  // gives the empty rows' y writes to nobody in particular while the merge
  // path accounts for them as work.
  const index_t n = 10000;
  CooMatrix coo(n, n);
  for (index_t i = n - 64; i < n; ++i) {
    for (index_t j = 0; j < 64; ++j) coo.add(i, j, 1.0);
  }
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const MergePathPartition p = partition_merge_path(a, 8);
  // Every thread receives a nontrivial slice of the row space.
  for (int t = 0; t < 8; ++t) {
    EXPECT_GT(p.row_begin[static_cast<std::size_t>(t) + 1] -
                  p.row_begin[static_cast<std::size_t>(t)] +
                  (p.nnz_begin[static_cast<std::size_t>(t) + 1] -
                   p.nnz_begin[static_cast<std::size_t>(t)]),
              1000);
  }
}

class MergeKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(MergeKernelTest, MatchesSerialReference) {
  const int threads = GetParam();
  for (std::uint64_t seed : {2u, 9u}) {
    const CsrMatrix a = random_square(401, 4.0, seed);
    const auto x = random_vector(a.num_cols(), seed);
    std::vector<value_t> y_ref(static_cast<std::size_t>(a.num_rows()));
    std::vector<value_t> y(y_ref.size());
    spmv_serial(a, x, y_ref);
    spmv_merge(a, x, y, partition_merge_path(a, threads));
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_NEAR(y[i], y_ref[i], 1e-12) << "i=" << i << " seed=" << seed;
    }
  }
}

TEST_P(MergeKernelTest, HandlesEmptyRowBlocks) {
  const index_t n = 500;
  CooMatrix coo(n, n);
  for (index_t i = 100; i < 120; ++i) {
    for (index_t j = 0; j < 50; ++j) coo.add(i, (j * 7) % n, 0.5 + j);
  }
  coo.add(499, 499, 2.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const auto x = random_vector(n, 3);
  std::vector<value_t> y_ref(static_cast<std::size_t>(n)), y(y_ref.size());
  spmv_serial(a, x, y_ref);
  spmv_merge(a, x, y, partition_merge_path(a, GetParam()));
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(y[i], y_ref[i], 1e-12) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, MergeKernelTest,
                         ::testing::Values(1, 2, 5, 16, 64));

TEST(SymmetricLower, MatchesFullSpmv) {
  const CsrMatrix full = random_symmetric(200, 4.0, 6);
  const CsrMatrix lower = lower_triangle(full);
  const auto x = random_vector(full.num_cols(), 8);
  std::vector<value_t> y_full(static_cast<std::size_t>(full.num_rows()));
  std::vector<value_t> y_half(y_full.size());
  spmv_serial(full, x, y_full);
  spmv_symmetric_lower_serial(lower, x, y_half);
  for (std::size_t i = 0; i < y_full.size(); ++i) {
    EXPECT_NEAR(y_half[i], y_full[i], 1e-11);
  }
  // The half-storage kernel reads roughly half the matrix bytes.
  EXPECT_LT(lower.num_nonzeros(), full.num_nonzeros() * 3 / 5 + 1);
}

TEST(Transpose, SerialMatchesExplicitTranspose) {
  const CsrMatrix a = random_square(150, 5.0, 12);
  const CsrMatrix at = transpose(a);
  const auto x = random_vector(a.num_rows(), 4);
  std::vector<value_t> y_direct(static_cast<std::size_t>(a.num_cols()));
  std::vector<value_t> y_explicit(y_direct.size());
  spmv_transpose_serial(a, x, y_direct);
  spmv_serial(at, x, y_explicit);
  for (std::size_t i = 0; i < y_direct.size(); ++i) {
    EXPECT_NEAR(y_direct[i], y_explicit[i], 1e-12);
  }
}

TEST(Transpose, ParallelMatchesSerial) {
  const CsrMatrix a = random_square(300, 4.0, 15);
  const auto x = random_vector(a.num_rows(), 5);
  std::vector<value_t> y_serial(static_cast<std::size_t>(a.num_cols()));
  std::vector<value_t> y_parallel(y_serial.size());
  spmv_transpose_serial(a, x, y_serial);
  for (int threads : {1, 4, 16}) {
    spmv_transpose_parallel(a, x, y_parallel, threads);
    for (std::size_t i = 0; i < y_serial.size(); ++i) {
      ASSERT_NEAR(y_parallel[i], y_serial[i], 1e-11) << threads;
    }
  }
}

}  // namespace
}  // namespace ordo
