#include "sparse/csr_ops.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "check/invariants.hpp"
#include "sparse/parallel_rows.hpp"

namespace ordo {

CsrMatrix transpose(const CsrMatrix& a) {
  const index_t m = a.num_rows();
  const index_t n = a.num_cols();
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();

  CsrArray<offset_t> t_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (index_t j : col_idx) t_ptr[static_cast<std::size_t>(j) + 1]++;
  std::partial_sum(t_ptr.begin(), t_ptr.end(), t_ptr.begin());

  // The scatter writes every slot of t_col and t_val.
  std::vector<offset_t> next(t_ptr.begin(), t_ptr.end() - 1);
  CsrArray<index_t> t_col(col_idx.size());
  CsrArray<value_t> t_val(values.size());
  for (index_t i = 0; i < m; ++i) {
    for (offset_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t j = col_idx[static_cast<std::size_t>(k)];
      const offset_t pos = next[static_cast<std::size_t>(j)]++;
      t_col[static_cast<std::size_t>(pos)] = i;
      t_val[static_cast<std::size_t>(pos)] = values[static_cast<std::size_t>(k)];
    }
  }
  // Rows of the transpose are filled in ascending source-row order, so the
  // column indices are already sorted.
  return CsrMatrix(n, m, std::move(t_ptr), std::move(t_col), std::move(t_val));
}

bool is_pattern_symmetric(const CsrMatrix& a) {
  if (!a.is_square()) return false;
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto n = static_cast<std::size_t>(a.num_rows());
  // next[j]: the first entry of row j no entry (i, j) has matched yet. Rows
  // are walked in ascending order and every row is sorted, so the mirror of
  // (i, j) must be exactly that entry. Each of the nnz entries consumes a
  // distinct one, so every entry is also some entry's mirror (DESIGN §18).
  // Ranges of columns j run on idle cores: each walks every row's entries
  // in its range, in row order, and moves only its own cursors (DESIGN §21).
  std::vector<offset_t> next(row_ptr.begin(), row_ptr.end() - 1);
  std::atomic<bool> symmetric{true};
  parallel_for_row_ranges(row_ptr, [&](std::size_t first, std::size_t last) {
    const auto low = static_cast<index_t>(first);
    const auto high = static_cast<index_t>(last);
    for (std::size_t i = 0; i < n; ++i) {
      // Relaxed: the flag only cuts the walk short; the join publishes it.
      if (!symmetric.load(std::memory_order_relaxed)) return;
      const index_t* begin = col_idx.data() + row_ptr[i];
      const index_t* end = col_idx.data() + row_ptr[i + 1];
      if (begin != end && *begin < low) {
        begin = std::lower_bound(begin, end, low);
      }
      if (begin != end && end[-1] >= high) {
        end = std::lower_bound(begin, end, high);
      }
      for (const index_t* col = begin; col != end; ++col) {
        const auto j = static_cast<std::size_t>(*col);
        const offset_t mirror = next[j]++;
        if (mirror == row_ptr[j + 1] ||
            col_idx[static_cast<std::size_t>(mirror)] !=
                static_cast<index_t>(i)) {
          symmetric.store(false, std::memory_order_relaxed);
          return;
        }
      }
    }
  });
  return symmetric.load(std::memory_order_relaxed);
}

CsrMatrix symmetrize(const CsrMatrix& a) {
  require(a.is_square(), "symmetrize: matrix must be square");
  const CsrMatrix at = transpose(a);
  const index_t n = a.num_rows();

  // Merge the sorted rows of A and Aᵀ.
  CsrArray<offset_t> s_ptr(static_cast<std::size_t>(n) + 1, 0);
  CsrArray<index_t> s_col;
  CsrArray<value_t> s_val;
  s_col.reserve(static_cast<std::size_t>(a.num_nonzeros()) * 2);
  s_val.reserve(static_cast<std::size_t>(a.num_nonzeros()) * 2);
  for (index_t i = 0; i < n; ++i) {
    const auto ca = a.row_cols(i);
    const auto va = a.row_values(i);
    const auto cb = at.row_cols(i);
    const auto vb = at.row_values(i);
    std::size_t p = 0, q = 0;
    while (p < ca.size() || q < cb.size()) {
      if (q == cb.size() || (p < ca.size() && ca[p] < cb[q])) {
        s_col.push_back(ca[p]);
        s_val.push_back(va[p]);
        ++p;
      } else if (p == ca.size() || cb[q] < ca[p]) {
        s_col.push_back(cb[q]);
        s_val.push_back(vb[q]);
        ++q;
      } else {
        s_col.push_back(ca[p]);
        s_val.push_back(va[p] + vb[q]);
        ++p;
        ++q;
      }
    }
    s_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<offset_t>(s_col.size());
  }
  CsrMatrix s(n, n, std::move(s_ptr), std::move(s_col), std::move(s_val));
#if defined(ORDO_CHECK_INVARIANTS_ENABLED)
  // Contract: the merged pattern equals its transpose's.
  if (!is_pattern_symmetric(s)) {
    check::report_violation(check::ViolationKind::kCsr, "symmetrize",
                            "result pattern is not symmetric");
  }
#endif
  return s;
}

namespace {

// Rows up to this long are insertion-sorted in place in the output; longer
// ones go through a pair buffer and std::sort.
constexpr std::size_t kInsertionSortMaxRow = 32;
// Source rows are read in row_perm order, a jump per row; the row this many
// output rows ahead is prefetched (DESIGN §18).
constexpr std::size_t kPrefetchRows = 16;

// B(i, j) = A(row_perm[i], col_perm[j]), given a valid row_perm and the
// inverse of a valid col_perm, or no inverse when col_perm is the identity.
// Rows are gathered in ranges of even nonzeros on idle cores; each output
// row's slot is b_ptr[i], known before any row is written (DESIGN §21). The
// gather writes every slot of b_col and b_val, so they start unwritten and
// their pages are first touched on the cores that fill them (DESIGN §23).
CsrMatrix permute_with_inverse(const CsrMatrix& a, const Permutation& row_perm,
                               const Permutation* col_inv) {
  require(static_cast<index_t>(row_perm.size()) == a.num_rows(),
          "permute: row permutation length must equal row count");
  require(col_inv == nullptr ||
              static_cast<index_t>(col_inv->size()) == a.num_cols(),
          "permute: column permutation length must equal column count");
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  const auto m = static_cast<std::size_t>(a.num_rows());
  CsrArray<offset_t> b_ptr = parallel_row_offsets(m, [&](std::size_t i) {
    const auto src = static_cast<std::size_t>(row_perm[i]);
    return row_ptr[src + 1] - row_ptr[src];
  });
  CsrArray<index_t> b_col(static_cast<std::size_t>(a.num_nonzeros()));
  CsrArray<value_t> b_val(static_cast<std::size_t>(a.num_nonzeros()));
  parallel_for_row_ranges(b_ptr, [&](std::size_t first, std::size_t last) {
    const auto lo = static_cast<std::size_t>(b_ptr[first]);
    const auto hi = static_cast<std::size_t>(b_ptr[last]);
    touch_pages_in_order(b_col, lo, hi);
    touch_pages_in_order(b_val, lo, hi);
    std::vector<std::pair<index_t, value_t>> long_row;
    for (std::size_t i = first; i < last; ++i) {
      if (i + kPrefetchRows < m) {
        const auto ahead = static_cast<std::size_t>(
            row_ptr[static_cast<std::size_t>(row_perm[i + kPrefetchRows])]);
        __builtin_prefetch(col_idx.data() + ahead);
        __builtin_prefetch(values.data() + ahead);
      }
      const auto src = static_cast<std::size_t>(row_perm[i]);
      const auto begin = static_cast<std::size_t>(row_ptr[src]);
      const auto end = static_cast<std::size_t>(row_ptr[src + 1]);
      const auto out = static_cast<std::size_t>(b_ptr[i]);
      if (col_inv == nullptr) {
        std::copy(col_idx.data() + begin, col_idx.data() + end,
                  b_col.data() + out);
        std::copy(values.data() + begin, values.data() + end,
                  b_val.data() + out);
        continue;
      }
      const Permutation& inv = *col_inv;
      if (end - begin <= kInsertionSortMaxRow) {
        for (std::size_t k = begin; k < end; ++k) {
          const index_t j = inv[static_cast<std::size_t>(col_idx[k])];
          std::size_t pos = out + (k - begin);
          for (; pos > out && b_col[pos - 1] > j; --pos) {
            b_col[pos] = b_col[pos - 1];
            b_val[pos] = b_val[pos - 1];
          }
          b_col[pos] = j;
          b_val[pos] = values[k];
        }
        continue;
      }
      long_row.clear();
      for (std::size_t k = begin; k < end; ++k) {
        long_row.emplace_back(inv[static_cast<std::size_t>(col_idx[k])],
                              values[k]);
      }
      // Column indices in a row are distinct, so the sort is unambiguous.
      std::sort(long_row.begin(), long_row.end(),
                [](const auto& x, const auto& y) { return x.first < y.first; });
      for (std::size_t k = 0; k < long_row.size(); ++k) {
        b_col[out + k] = long_row[k].first;
        b_val[out + k] = long_row[k].second;
      }
    }
  });
  return CsrMatrix(a.num_rows(), a.num_cols(), std::move(b_ptr),
                   std::move(b_col), std::move(b_val));
}

}  // namespace

CsrMatrix permute_symmetric(const CsrMatrix& a, const Permutation& perm) {
  require(a.is_square(), "permute_symmetric: matrix must be square");
  // Inverting validates `perm`, which is also the row permutation.
  const Permutation inv = invert_permutation(perm);
  return permute_with_inverse(a, perm, &inv);
}

CsrMatrix permute_rows(const CsrMatrix& a, const Permutation& perm) {
  require_valid_permutation(perm, "permute_rows");
  require(static_cast<index_t>(perm.size()) == a.num_rows(),
          "permute_rows: permutation length must equal row count");
  return permute_with_inverse(a, perm, nullptr);
}

CsrMatrix permute(const CsrMatrix& a, const Permutation& row_perm,
                  const Permutation& col_perm) {
  require_valid_permutation(row_perm, "permute(row_perm)");
  // Inverting validates `col_perm`.
  const Permutation col_inv = invert_permutation(col_perm);
  return permute_with_inverse(a, row_perm, &col_inv);
}

index_t diagonal_nonzeros(const CsrMatrix& a) {
  index_t count = 0;
  const index_t n = std::min(a.num_rows(), a.num_cols());
  for (index_t i = 0; i < n; ++i) {
    const auto cols = a.row_cols(i);
    if (std::binary_search(cols.begin(), cols.end(), i)) ++count;
  }
  return count;
}

CsrMatrix with_full_diagonal(const CsrMatrix& a, value_t diag_value) {
  require(a.is_square(), "with_full_diagonal: matrix must be square");
  const index_t n = a.num_rows();
  CsrArray<offset_t> b_ptr(static_cast<std::size_t>(n) + 1, 0);
  CsrArray<index_t> b_col;
  CsrArray<value_t> b_val;
  b_col.reserve(static_cast<std::size_t>(a.num_nonzeros() + n));
  b_val.reserve(static_cast<std::size_t>(a.num_nonzeros() + n));
  for (index_t i = 0; i < n; ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_values(i);
    bool placed = false;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (!placed && cols[k] > i) {
        b_col.push_back(i);
        b_val.push_back(diag_value);
        placed = true;
      }
      if (cols[k] == i) placed = true;
      b_col.push_back(cols[k]);
      b_val.push_back(vals[k]);
    }
    if (!placed) {
      b_col.push_back(i);
      b_val.push_back(diag_value);
    }
    b_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<offset_t>(b_col.size());
  }
  return CsrMatrix(n, n, std::move(b_ptr), std::move(b_col), std::move(b_val));
}

CsrMatrix lower_triangle(const CsrMatrix& a) {
  require(a.is_square(), "lower_triangle: matrix must be square");
  const index_t n = a.num_rows();
  CsrArray<offset_t> b_ptr(static_cast<std::size_t>(n) + 1, 0);
  CsrArray<index_t> b_col;
  CsrArray<value_t> b_val;
  for (index_t i = 0; i < n; ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_values(i);
    for (std::size_t k = 0; k < cols.size() && cols[k] <= i; ++k) {
      b_col.push_back(cols[k]);
      b_val.push_back(vals[k]);
    }
    b_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<offset_t>(b_col.size());
  }
  return CsrMatrix(n, n, std::move(b_ptr), std::move(b_col), std::move(b_val));
}

}  // namespace ordo
