// Compressed sparse row (CSR) matrix: the computational format for every
// kernel in ordo. Nonzeros are grouped by row; within each row, column
// indices are stored in ascending order with no duplicates.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/types.hpp"

namespace ordo {

/// CSR sparse matrix with 64-bit row pointers, 32-bit column indices and
/// double-precision values (Section 4.1 of the paper).
///
/// The three arrays are immutable after construction and shared: a copy of
/// a CsrMatrix is O(1) and points at the same arrays, so keeping a second
/// handle on a large matrix never doubles its footprint. Nothing hands out
/// a mutable view, so a copy can never write through to its original.
class CsrMatrix {
 public:
  CsrMatrix();

  /// Takes ownership of prebuilt CSR arrays. Validates the invariants:
  /// row_ptr has num_rows+1 monotone entries starting at 0; column indices
  /// are in range and strictly ascending within each row.
  CsrMatrix(index_t num_rows, index_t num_cols, CsrArray<offset_t> row_ptr,
            CsrArray<index_t> col_idx, CsrArray<value_t> values);

  /// Builds a CSR matrix from triplets. Duplicate entries are summed.
  static CsrMatrix from_coo(const CooMatrix& coo);

  /// Builds from triplets where entries with row != col that appear only in
  /// one triangle are mirrored, i.e. the expansion used by the paper for
  /// matrices stored in symmetric Matrix Market form.
  static CsrMatrix from_coo_symmetric_expand(const CooMatrix& coo);

  index_t num_rows() const { return num_rows_; }
  index_t num_cols() const { return num_cols_; }
  offset_t num_nonzeros() const {
    return row_ptr_.empty() ? 0 : row_ptr_.back();
  }

  std::span<const offset_t> row_ptr() const { return row_ptr_; }
  std::span<const index_t> col_idx() const { return col_idx_; }
  std::span<const value_t> values() const { return values_; }

  /// Number of nonzeros in row i.
  offset_t row_nonzeros(index_t i) const { return row_ptr_[i + 1] - row_ptr_[i]; }

  /// Column indices of row i.
  std::span<const index_t> row_cols(index_t i) const {
    return col_idx_.subspan(static_cast<std::size_t>(row_ptr_[i]),
                            static_cast<std::size_t>(row_nonzeros(i)));
  }

  /// Values of row i.
  std::span<const value_t> row_values(index_t i) const {
    return values_.subspan(static_cast<std::size_t>(row_ptr_[i]),
                           static_cast<std::size_t>(row_nonzeros(i)));
  }

  /// True when the matrix is square.
  bool is_square() const { return num_rows_ == num_cols_; }

  /// Bytes needed to store the matrix in CSR form (row pointers + column
  /// indices + values). Used by the performance model for memory traffic.
  std::int64_t storage_bytes() const;

  /// FNV-1a hash of the row_ptr array (never 0), computed once per set of
  /// arrays and shared by every copy. The engine keys its plan cache on it,
  /// so repeat plan lookups cost O(1) instead of an O(rows) walk.
  std::uint64_t row_structure_hash() const;

  /// Structural and numerical equality (dimension + array contents).
  friend bool operator==(const CsrMatrix& a, const CsrMatrix& b);

 private:
  struct Arrays {
    CsrArray<offset_t> row_ptr{0};
    CsrArray<index_t> col_idx;
    CsrArray<value_t> values;
    // 0 until row_structure_hash() first runs. Relaxed atomics suffice:
    // the hash is a pure function of immutable data, so racing threads
    // compute the same value and either store wins.
    mutable std::atomic<std::uint64_t> row_hash{0};
  };

  void validate() const;

  index_t num_rows_ = 0;
  index_t num_cols_ = 0;
  std::shared_ptr<const Arrays> arrays_;
  // Span cache over arrays_, resolved once at construction: accessors are
  // one load, not a walk through the shared pointer.
  std::span<const offset_t> row_ptr_;
  std::span<const index_t> col_idx_;
  std::span<const value_t> values_;
};

}  // namespace ordo
