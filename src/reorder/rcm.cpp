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
// component's start, degree, id). The distances come from the
// pseudo-peripheral search's own BFS, and two stable counting sorts produce
// the order in O(n + m) (DESIGN §18).
#include <algorithm>

#include "graph/graph.hpp"
#include "reorder/reordering.hpp"

namespace ordo {
namespace {

// Stable counting sort of `items` by `key(item)`, a key in [0, buckets).
template <class Key>
std::vector<index_t> counting_sort(const std::vector<index_t>& items,
                                   index_t buckets, Key key) {
  std::vector<index_t> start(static_cast<std::size_t>(buckets) + 1, 0);
  for (index_t v : items) ++start[static_cast<std::size_t>(key(v)) + 1];
  for (std::size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
  std::vector<index_t> sorted(items.size());
  for (index_t v : items) {
    const index_t slot = start[static_cast<std::size_t>(key(v))]++;
    sorted[static_cast<std::size_t>(slot)] = v;
  }
  return sorted;
}

Permutation cuthill_mckee_ordering(const Graph& g) {
  const index_t n = g.num_vertices();
  // rank[v]: v's component offset plus its BFS level there; components are
  // numbered from their lowest vertex, and their levels stack up in order.
  std::vector<index_t> rank(static_cast<std::size_t>(n), -1);
  PeripheralSearch search(g);
  index_t offset = 0;
  for (index_t s = 0; s < n; ++s) {
    if (rank[static_cast<std::size_t>(s)] >= 0) continue;
    search.run(s);
    for (index_t v : search.order()) {
      rank[static_cast<std::size_t>(v)] = offset + search.level(v);
    }
    offset += search.eccentricity() + 1;
  }
  // Degrees are below n and ranks below offset <= n.
  const Permutation by_degree = counting_sort(
      identity_permutation(n), n, [&](index_t v) { return g.degree(v); });
  return counting_sort(by_degree, offset, [&](index_t v) {
    return rank[static_cast<std::size_t>(v)];
  });
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
