// Gray-code row ordering (Zhao et al., ICCD 2020), with the parameters the
// paper adopts: 16 bitmap sections and a dense-row threshold of 20 nonzeros.
//
// Rows are first split into a dense and a sparse submatrix by nonzero count.
// Dense rows receive the *density* ordering (grouped by similar nonzero
// count to improve branch prediction); sparse rows receive the
// *bitmap* ordering: each row is summarised by a bitmap recording which of
// the equal-width column sections contain a nonzero, and rows are sorted by
// the binary-reflected Gray-code rank of that bitmap, so consecutive rows
// touch nearly the same sections of the input vector. Only rows move; the
// ordering is unsymmetric.
#include <algorithm>
#include <bit>
#include <numeric>

#include "pipeline/fork_join.hpp"
#include "reorder/reordering.hpp"

namespace ordo {
namespace {

/// Rank of a bitmap in the binary-reflected Gray code sequence: the value r
/// such that gray(r) == bits, computed by the standard prefix-XOR inverse.
std::uint32_t gray_rank(std::uint32_t bits) {
  std::uint32_t r = bits;
  for (std::uint32_t shift = 1; shift < 32; shift <<= 1) {
    r ^= r >> shift;
  }
  return r;
}

}  // namespace

Permutation gray_row_ordering(const CsrMatrix& a,
                              const ReorderOptions& options) {
  const auto m = static_cast<std::size_t>(a.num_rows());
  const index_t n = a.num_cols();
  const int bits = options.gray_bits;
  require(bits >= 1 && bits <= 31, "gray_row_ordering: bits must be in 1..31");
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();

  // Row keys, row-parallel: a dense row's rank is kDenseRow; a sparse row's
  // is the Gray-code rank of its section bitmap, which is below 2^bits.
  constexpr std::uint32_t kDenseRow = ~std::uint32_t{0};
  // The result is allocated before the scratch arrays, so freeing them
  // leaves no hole under it in the heap.
  Permutation perm(m);
  std::vector<std::uint32_t> rank(m);
  const double section_width =
      n > 0 ? static_cast<double>(n) / static_cast<double>(bits) : 1.0;
  pipeline::parallel_for(
      m, pipeline::kMinParallelRows, [&](std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
          if (row_ptr[i + 1] - row_ptr[i] > options.gray_dense_threshold) {
            rank[i] = kDenseRow;
            continue;
          }
          std::uint32_t bitmap = 0;
          for (auto k = static_cast<std::size_t>(row_ptr[i]);
               k < static_cast<std::size_t>(row_ptr[i + 1]); ++k) {
            const int section = std::min<int>(
                bits - 1, static_cast<int>(static_cast<double>(col_idx[k]) /
                                           section_width));
            bitmap |= 1u << section;
          }
          rank[i] = gray_rank(bitmap);
        }
      });

  // The density ordering puts the dense rows first, by nonzeros descending
  // (grouping rows of similar count, heaviest first); the bitmap ordering
  // sorts the sparse rows by Gray-code rank, then nonzeros descending. Ties
  // keep row order. Both are stable counting sorts from the least
  // significant key: every row by nonzeros, then the sparse rows by rank.
  const auto nnz = [&](std::size_t i) {
    return static_cast<std::size_t>(row_ptr[i + 1] - row_ptr[i]);
  };
  std::size_t max_nnz = 0;
  for (std::size_t i = 0; i < m; ++i) max_nnz = std::max(max_nnz, nnz(i));
  std::vector<std::size_t> start(max_nnz + 2, 0);
  for (std::size_t i = 0; i < m; ++i) ++start[max_nnz - nnz(i) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<index_t> order(m);
  for (std::size_t i = 0; i < m; ++i) {
    order[start[max_nnz - nnz(i)]++] = static_cast<index_t>(i);
  }

  // Dense rows lead in that order. The sparse rows keep it, compacted in
  // place, and are sorted by rank from there, the last digit's pass
  // writing after the dense rows.
  std::size_t dense = 0;
  std::size_t sparse = 0;
  for (std::size_t k = 0; k < m; ++k) {
    const index_t i = order[k];
    if (rank[static_cast<std::size_t>(i)] == kDenseRow) {
      perm[dense++] = i;
    } else {
      order[sparse++] = i;
    }
  }
  order.resize(sparse);
  // Digits of up to 16 bits, and no wider than the row count: a count
  // array of 2^16 entries per pass would dwarf a small matrix.
  const int digit_bits =
      std::min({bits, 16, std::max(8, static_cast<int>(std::bit_width(m)))});
  const std::uint32_t mask = (std::uint32_t{1} << digit_bits) - 1;
  std::vector<index_t> sorted(bits > digit_bits ? sparse : 0);
  for (int shift = 0; shift < bits; shift += digit_bits) {
    const bool last = shift + digit_bits >= bits;
    index_t* out = last ? perm.data() + dense : sorted.data();
    const auto digit = [&](index_t i) {
      return (rank[static_cast<std::size_t>(i)] >> shift) & mask;
    };
    std::vector<std::size_t> bucket(std::size_t{mask} + 2, 0);
    for (index_t i : order) ++bucket[digit(i) + 1];
    std::partial_sum(bucket.begin(), bucket.end(), bucket.begin());
    for (index_t i : order) out[bucket[digit(i)]++] = i;
    if (!last) order.swap(sorted);
  }
  return perm;
}

}  // namespace ordo
