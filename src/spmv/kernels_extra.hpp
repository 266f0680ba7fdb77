// Additional SpMV kernels beyond the study's 1D/2D pair.
//
//  * merge-path SpMV (Merrill & Garland, PPoPP 2016): the full version of
//    the kernel the paper's 2D algorithm simplifies. The merge path splits
//    *rows + nonzeros* evenly, so matrices with many empty or tiny rows
//    (where the pure nonzero split still leaves per-row overhead imbalanced)
//    stay balanced too.
//  * symmetric SpMV: processes a symmetric matrix from its lower triangle,
//    halving the matrix traffic (the optimisation studied by Gkountouvas et
//    al., cited in Section 5); serial reference implementation.
//  * transpose products y = Aᵀx, serial and row-parallel on the pool with
//    atomic scatter (std::atomic_ref).
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace ordo {

/// A merge-path work assignment: thread t consumes merge coordinates
/// [path[t], path[t+1]) where a coordinate advances either one row (y write)
/// or one nonzero (FMA).
struct MergePathPartition {
  /// num_threads+1 entries: (row, nnz) coordinate pairs along the diagonal.
  std::vector<index_t> row_begin;
  std::vector<offset_t> nnz_begin;
};

/// Splits the (rows + nnz) merge path of `a` evenly across threads.
MergePathPartition partition_merge_path(const CsrMatrix& a, int num_threads);

/// Merge-path SpMV: y = A·x using the given partition.
void spmv_merge(const CsrMatrix& a, std::span<const value_t> x,
                std::span<value_t> y, const MergePathPartition& partition);

/// y = A·x where only the lower triangle (incl. diagonal) of the symmetric A
/// is stored: each stored off-diagonal entry contributes to two outputs.
void spmv_symmetric_lower_serial(const CsrMatrix& lower,
                                 std::span<const value_t> x,
                                 std::span<value_t> y);

/// y = Aᵀ·x, serial.
void spmv_transpose_serial(const CsrMatrix& a, std::span<const value_t> x,
                           std::span<value_t> y);

/// y = Aᵀ·x, one pool thread per row block of partition_rows_even, with
/// atomic scatter into y.
void spmv_transpose_parallel(const CsrMatrix& a, std::span<const value_t> x,
                             std::span<value_t> y, int num_threads);

}  // namespace ordo
