// Band-limited windowed RCM — the reordering pass of the out-of-core path.
//
// Classic RCM needs the whole adjacency structure resident (a global BFS
// revisits rows in data-dependent order). The windowed variant processes
// the matrix in contiguous row blocks of `window_rows`: each window gets a
// window-local RCM (degree-ordered BFS from a pseudo-peripheral vertex per
// component, reversed within the window) over the subgraph induced by its
// own rows, with edges leaving the window clipped. Every window permutes
// only its own row range, so
//   * the union of the window permutations is a valid global permutation,
//   * the pass touches O(window) rows of the source matrix at a time (one
//     forward sweep — mmap-backed matrices page each region in once), and
//   * the streamed apply below emits the reordered matrix through the
//     PagedCsrWriter with O(rows) heap, never materialising either side.
// For matrices whose structure is already band-limited (the streamed
// banded family), edges rarely cross window boundaries, so the quality
// loss against global RCM shrinks as window_rows / bandwidth grows.
#include <algorithm>
#include <filesystem>
#include <vector>

#include "graph/graph.hpp"
#include "reorder/reordering.hpp"
#include "sparse/storage.hpp"

namespace ordo {

Permutation windowed_rcm_ordering(const CsrMatrix& a, index_t window_rows,
                                  const std::atomic<bool>* cancel) {
  require(a.is_square(), "windowed_rcm_ordering: matrix must be square");
  require(window_rows > 0, "windowed_rcm_ordering: window must be positive");
  const index_t n = a.num_rows();

  Permutation order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<offset_t> local_ptr;
  std::vector<index_t> local_adj;
  std::vector<std::vector<index_t>> local_lists;
  for (index_t w0 = 0; w0 < n; w0 += window_rows) {
    poll_cancelled(cancel, "windowed_rcm_ordering");
    const index_t w1 = std::min<index_t>(n, w0 + window_rows);
    const index_t wn = w1 - w0;

    // Window-local symmetrised adjacency: both directions of every in-window
    // edge, deduplicated, self-loops dropped. Only rows [w0, w1) are read.
    local_lists.assign(static_cast<std::size_t>(wn), {});
    for (index_t i = w0; i < w1; ++i) {
      for (const index_t j : a.row_cols(i)) {
        if (j < w0 || j >= w1 || j == i) continue;
        local_lists[static_cast<std::size_t>(i - w0)].push_back(j - w0);
        local_lists[static_cast<std::size_t>(j - w0)].push_back(i - w0);
      }
    }
    local_ptr.assign(1, 0);
    local_adj.clear();
    for (index_t v = 0; v < wn; ++v) {
      auto& list = local_lists[static_cast<std::size_t>(v)];
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
      local_adj.insert(local_adj.end(), list.begin(), list.end());
      local_ptr.push_back(static_cast<offset_t>(local_adj.size()));
    }
    const Graph g(wn, local_ptr, local_adj);

    // Window-local CM, then the RCM reversal within the window: component
    // starts follow the same ascending-lowest-vertex discipline as the
    // global algorithm, so the pass is deterministic.
    Permutation window_order = cuthill_mckee_ordering(g);
    std::reverse(window_order.begin(), window_order.end());
    for (const index_t v : window_order) order.push_back(w0 + v);
  }
  return order;
}

CsrMatrix apply_ordering_out_of_core(const CsrMatrix& a,
                                     const Ordering& ordering,
                                     const std::string& spill_dir,
                                     const std::string& name) {
  require(!spill_dir.empty(),
          "apply_ordering_out_of_core: spill directory must be set");
  require_valid_permutation(ordering.row_perm, "apply_ordering_out_of_core");
  require(static_cast<index_t>(ordering.row_perm.size()) == a.num_rows() &&
              static_cast<index_t>(ordering.col_perm.size()) == a.num_cols(),
          "apply_ordering_out_of_core: permutation size mismatch");

  // Inverting validates col_perm.
  const Permutation inv_col = invert_permutation(ordering.col_perm);
  namespace fs = std::filesystem;
  fs::create_directories(spill_dir);
  PagedCsrWriter writer((fs::path(spill_dir) / (name + ".ordocsr")).string(),
                        a.num_rows(), a.num_cols());

  // One source row per output row; heap stays O(rows + max row length).
  // With a window-local row permutation (windowed RCM) the source rows of
  // consecutive output rows stay within one window, so an mmap-backed
  // source pages each region in once.
  std::vector<std::pair<index_t, value_t>> entries;
  std::vector<index_t> cols;
  std::vector<value_t> values;
  for (index_t r = 0; r < a.num_rows(); ++r) {
    const index_t old_row = ordering.row_perm[static_cast<std::size_t>(r)];
    const auto old_cols = a.row_cols(old_row);
    const auto old_values = a.row_values(old_row);
    entries.clear();
    for (std::size_t k = 0; k < old_cols.size(); ++k) {
      entries.emplace_back(inv_col[static_cast<std::size_t>(old_cols[k])],
                           old_values[k]);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    cols.clear();
    values.clear();
    for (const auto& [c, v] : entries) {
      cols.push_back(c);
      values.push_back(v);
    }
    writer.append_row(cols, values);
  }
  return CsrMatrix(a.num_rows(), a.num_cols(), writer.finish());
}

}  // namespace ordo
