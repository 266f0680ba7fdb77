// Cuthill–McKee and Reverse Cuthill–McKee orderings.
//
// CM performs a breadth-first traversal of the matrix graph where each
// level's vertices are visited in ascending-degree order; RCM reverses the
// result, which is known to produce less fill for symmetric positive
// definite factorizations (Liu & Sherman 1976) and is the variant evaluated
// by the paper. Components are each started from a George–Liu
// pseudo-peripheral vertex and processed in ascending order of their lowest
// vertex id for determinism.
//
// Every level of the traversal is sorted by (degree, id) as a whole, so the
// CM order is the sort of all vertices by (component, BFS distance from the
// component's start, degree, id). The pseudo-peripheral search's own BFS
// queue already lists a component by level, so the order is the queues of
// the components back to back with each level's segment sorted by (degree,
// id); the segments are sorted on idle cores (DESIGN §18, §23).
#include <algorithm>
#include <cstdint>

#include "graph/graph.hpp"
#include "reorder/reordering.hpp"
#include "sparse/parallel_rows.hpp"

namespace ordo {
namespace {

Permutation cuthill_mckee_ordering(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  // The search's queues are allocated before `order` and freed under it,
  // where later allocations reuse them: allocated after it, they left
  // spmv_dram's heap 8.6 MB larger at its peak.
  PeripheralSearch search(g);
  Permutation order(n);
  // level_starts[l]: where the l-th level, counting those of earlier
  // components, starts in `order`; a final entry n.
  std::vector<offset_t> level_starts;
  std::vector<bool> placed(n, false);
  std::size_t filled = 0;
  for (index_t s = 0; s < static_cast<index_t>(n); ++s) {
    if (placed[static_cast<std::size_t>(s)]) continue;
    search.run(s);
    const auto component = search.order();
    std::copy(component.begin(), component.end(), order.begin() + filled);
    for (index_t v : component) placed[static_cast<std::size_t>(v)] = true;
    const auto starts = search.level_starts();
    for (std::size_t l = 0; l + 1 < starts.size(); ++l) {
      level_starts.push_back(static_cast<offset_t>(filled) + starts[l]);
    }
    filled += component.size();
  }
  level_starts.push_back(static_cast<offset_t>(n));
  // Sort each level by a packed (degree, id) key; degrees and ids are
  // below 2^31, so the key order is the pair order. The keys live in one
  // buffer allocated here, so a helper allocates nothing and never claims a
  // malloc arena (DESIGN §21).
  CsrArray<std::uint64_t> keys(n);
  parallel_for_row_ranges(
      level_starts, [&](std::size_t first_level, std::size_t last_level) {
        const auto first = static_cast<std::size_t>(level_starts[first_level]);
        const auto last = static_cast<std::size_t>(level_starts[last_level]);
        for (std::size_t k = first; k < last; ++k) {
          keys[k] = static_cast<std::uint64_t>(g.degree(order[k])) << 32 |
                    static_cast<std::uint32_t>(order[k]);
        }
        for (std::size_t l = first_level; l < last_level; ++l) {
          std::sort(keys.begin() + level_starts[l],
                    keys.begin() + level_starts[l + 1]);
        }
        for (std::size_t k = first; k < last; ++k) {
          order[k] = static_cast<index_t>(keys[k] & 0xffffffffU);
        }
      });
  return order;
}

}  // namespace

Permutation cuthill_mckee_ordering(const CsrMatrix& a) {
  require(a.is_square(), "cuthill_mckee_ordering: matrix must be square");
  return cuthill_mckee_ordering(Graph::from_matrix(a));
}

Permutation rcm_ordering(const CsrMatrix& a) {
  Permutation order = cuthill_mckee_ordering(a);
  std::reverse(order.begin(), order.end());
  return order;
}

}  // namespace ordo
