// Separated block diagonal (SBD) ordering (Yzelman & Bisseling, "Cache-
// Oblivious Sparse Matrix-Vector Multiplication by Using Sparse Matrix
// Partitioning Methods", SISC 2009) — the other hypergraph-partitioning
// reordering Section 2.1.3 cites; implemented as an extension beyond the
// paper's six studied algorithms.
//
// Rows are recursively bisected with the column-net hypergraph partitioner.
// At each level the columns split three ways: columns touched only by the
// top row block, columns touched by both blocks (the separator), and columns
// touched only by the bottom block. Ordering the columns [top | separator |
// bottom] and recursing on the two pure blocks produces the separated block
// diagonal form, whose nested separators give cache-oblivious x-vector reuse
// for SpMV.
#include <numeric>

#include "partition/hypergraph.hpp"
#include "partition/hypergraph_partitioner.hpp"
#include "reorder/reordering.hpp"

namespace ordo {
namespace {

struct SbdContext {
  const ReorderOptions* options;
  Permutation row_order;  // filled in recursion order
  std::uint64_t seed;
};

// Orders the submatrix given by `rows` x `cols` (original ids). Appends row
// ids to ctx.row_order and writes the column order into `col_order`, which
// the caller splices between its own column groups.
void sbd_recurse(const CsrMatrix& a, const std::vector<index_t>& rows,
                 const std::vector<index_t>& cols, SbdContext& ctx,
                 std::vector<index_t>& col_order) {
  const index_t num_rows = static_cast<index_t>(rows.size());
  if (num_rows <= ctx.options->sbd_leaf_rows || cols.size() <= 1) {
    ctx.row_order.insert(ctx.row_order.end(), rows.begin(), rows.end());
    col_order.insert(col_order.end(), cols.begin(), cols.end());
    return;
  }

  // Column-net hypergraph of the submatrix: vertices = local rows, nets =
  // local columns with >= 2 pins.
  std::vector<index_t> col_to_local(static_cast<std::size_t>(a.num_cols()),
                                    -1);
  for (std::size_t c = 0; c < cols.size(); ++c) {
    col_to_local[static_cast<std::size_t>(cols[c])] = static_cast<index_t>(c);
  }
  std::vector<index_t> row_in(static_cast<std::size_t>(a.num_rows()), -1);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    row_in[static_cast<std::size_t>(rows[r])] = static_cast<index_t>(r);
  }

  // Count pins per local column.
  std::vector<offset_t> col_count(cols.size(), 0);
  for (index_t row : rows) {
    for (index_t j : a.row_cols(row)) {
      const index_t local = col_to_local[static_cast<std::size_t>(j)];
      if (local >= 0) col_count[static_cast<std::size_t>(local)]++;
    }
  }
  std::vector<index_t> net_of_col(cols.size(), -1);
  std::vector<offset_t> net_ptr{0};
  for (std::size_t c = 0; c < cols.size(); ++c) {
    if (col_count[c] >= 2) {
      net_of_col[c] = static_cast<index_t>(net_ptr.size()) - 1;
      net_ptr.push_back(net_ptr.back() + col_count[c]);
    }
  }
  std::vector<index_t> pins(static_cast<std::size_t>(net_ptr.back()));
  std::vector<offset_t> fill(net_ptr.begin(), net_ptr.end() - 1);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (index_t j : a.row_cols(rows[r])) {
      const index_t local = col_to_local[static_cast<std::size_t>(j)];
      if (local < 0) continue;
      const index_t net = net_of_col[static_cast<std::size_t>(local)];
      if (net >= 0) {
        pins[static_cast<std::size_t>(fill[static_cast<std::size_t>(net)]++)] =
            static_cast<index_t>(r);
      }
    }
  }
  const Hypergraph h(num_rows, std::move(net_ptr), std::move(pins), {}, {});

  PartitionOptions popt;
  popt.seed = ctx.seed;
  popt.cancel = ctx.options->cancel;
  ctx.seed = ctx.seed * 6364136223846793005ULL + 1;
  const PartitionResult bisection = bisect_hypergraph(h, 0.5, popt);

  // Split rows by side and classify columns by which sides touch them.
  std::vector<index_t> rows_top, rows_bottom;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    (bisection.part[r] == 0 ? rows_top : rows_bottom).push_back(rows[r]);
  }
  if (rows_top.empty() || rows_bottom.empty()) {
    // Degenerate bisection; stop recursing to guarantee termination.
    ctx.row_order.insert(ctx.row_order.end(), rows.begin(), rows.end());
    col_order.insert(col_order.end(), cols.begin(), cols.end());
    return;
  }

  std::vector<unsigned char> touched(cols.size(), 0);  // bit0 top, bit1 bottom
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const unsigned char side = bisection.part[r] == 0 ? 1 : 2;
    for (index_t j : a.row_cols(rows[r])) {
      const index_t local = col_to_local[static_cast<std::size_t>(j)];
      if (local >= 0) touched[static_cast<std::size_t>(local)] |= side;
    }
  }
  std::vector<index_t> cols_top, cols_cut, cols_bottom;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    switch (touched[c]) {
      case 1: cols_top.push_back(cols[c]); break;
      case 2: cols_bottom.push_back(cols[c]); break;
      case 3: cols_cut.push_back(cols[c]); break;
      default: cols_top.push_back(cols[c]); break;  // untouched: keep left
    }
  }

  // [top block | separator columns | bottom block].
  std::vector<index_t> top_cols_ordered, bottom_cols_ordered;
  sbd_recurse(a, rows_top, cols_top, ctx, top_cols_ordered);
  sbd_recurse(a, rows_bottom, cols_bottom, ctx, bottom_cols_ordered);
  col_order.insert(col_order.end(), top_cols_ordered.begin(),
                   top_cols_ordered.end());
  col_order.insert(col_order.end(), cols_cut.begin(), cols_cut.end());
  col_order.insert(col_order.end(), bottom_cols_ordered.begin(),
                   bottom_cols_ordered.end());
}

}  // namespace

std::pair<Permutation, Permutation> sbd_ordering(
    const CsrMatrix& a, const ReorderOptions& options) {
  SbdContext ctx;
  ctx.options = &options;
  ctx.seed = options.seed + 0x5bdULL;
  ctx.row_order.reserve(static_cast<std::size_t>(a.num_rows()));

  std::vector<index_t> all_rows(static_cast<std::size_t>(a.num_rows()));
  std::iota(all_rows.begin(), all_rows.end(), index_t{0});
  std::vector<index_t> all_cols(static_cast<std::size_t>(a.num_cols()));
  std::iota(all_cols.begin(), all_cols.end(), index_t{0});

  Permutation col_order;
  col_order.reserve(all_cols.size());
  sbd_recurse(a, all_rows, all_cols, ctx, col_order);

  require_valid_permutation(ctx.row_order, "sbd_ordering(rows)");
  require_valid_permutation(col_order, "sbd_ordering(cols)");
  return {std::move(ctx.row_order), std::move(col_order)};
}

}  // namespace ordo
