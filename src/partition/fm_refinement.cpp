#include "partition/fm_refinement.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "partition/gain_queue.hpp"
#include "partition/partitioning.hpp"

namespace ordo {

BisectionBalance make_balance(std::int64_t total_weight,
                              double target_fraction, double tolerance) {
  const double total = static_cast<double>(total_weight);
  return BisectionBalance{
      static_cast<std::int64_t>(
          std::floor(total * target_fraction * (1.0 - tolerance))),
      static_cast<std::int64_t>(
          std::ceil(total * target_fraction * (1.0 + tolerance)))};
}

std::int64_t fm_move_gain(const Graph& g, const std::vector<index_t>& part,
                          index_t v) {
  std::int64_t external = 0, internal = 0;
  const auto neighbors = g.neighbors(v);
  const offset_t base = g.adj_ptr()[v];
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    const index_t w = g.edge_weight(base + static_cast<offset_t>(k));
    if (part[static_cast<std::size_t>(neighbors[k])] !=
        part[static_cast<std::size_t>(v)]) {
      external += w;
    } else {
      internal += w;
    }
  }
  return external - internal;
}

bool on_boundary(const Graph& g, const std::vector<index_t>& part,
                 index_t v) {
  const index_t side = part[static_cast<std::size_t>(v)];
  for (index_t u : g.neighbors(v)) {
    if (part[static_cast<std::size_t>(u)] != side) return true;
  }
  return false;
}

void collect_boundary(const Graph& g, const std::vector<index_t>& part,
                      std::vector<index_t>& out) {
  out.clear();
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    if (on_boundary(g, part, v)) out.push_back(v);
  }
}

namespace {

// Brings scratch.boundary up to date after a pass that kept the first
// `kept` of its moves. A vertex can join or leave the boundary only if it
// or a neighbour moved, so the new boundary lies within the old one plus
// the kept moves' closed neighbourhoods.
void update_boundary(const Graph& g, const std::vector<index_t>& part,
                     std::size_t kept, FmScratch& scratch) {
  if (kept == 0) return;
  std::vector<index_t>& seen = scratch.seen;
  std::vector<char>& marked = scratch.marked;
  seen.clear();
  const auto consider = [&](index_t v) {
    char& mark = marked[static_cast<std::size_t>(v)];
    if (mark == 0) {
      mark = 1;
      seen.push_back(v);
    }
  };
  for (const index_t v : scratch.boundary) consider(v);
  for (std::size_t k = 0; k < kept; ++k) {
    const index_t v = scratch.moves[k];
    consider(v);
    for (const index_t u : g.neighbors(v)) consider(u);
  }
  scratch.boundary.clear();
  for (const index_t v : seen) {
    marked[static_cast<std::size_t>(v)] = 0;
    if (on_boundary(g, part, v)) scratch.boundary.push_back(v);
  }
}

// One FM pass. Returns the improvement achieved (>= 0); `part` is updated to
// the best prefix of the move sequence.
//
// Only *boundary* vertices (those with a neighbour across the cut) are
// seeded into the gain queue — interior vertices can only become worth moving
// after a neighbour moves, at which point the update loop inserts them. The
// queue's pick depends only on the set of vertices it holds (DESIGN §19), so
// the boundary list's order does not matter, and a pass costs the cut region
// plus its moves rather than the whole graph.
std::int64_t fm_pass(const Graph& g, std::vector<index_t>& part,
                     const BisectionBalance& balance, FmScratch& scratch,
                     FmTally& tally) {
  const index_t n = g.num_vertices();
  FmGainQueue& queue = scratch.queue;
  queue.reset(n);
  for (const index_t v : scratch.boundary) {
    queue.insert(v, fm_move_gain(g, part, v), part[static_cast<std::size_t>(v)],
                 g.vertex_weight(v));
  }

  std::int64_t& weight0 = scratch.weight0;
  // Moves v to the other side, keeping part 0's weight in step.
  auto flip = [&](index_t v) {
    index_t& side = part[static_cast<std::size_t>(v)];
    weight0 += side == 0 ? -g.vertex_weight(v) : g.vertex_weight(v);
    side = 1 - side;
  };

  std::vector<index_t>& moves = scratch.moves;
  moves.clear();
  std::int64_t cumulative = 0, best_cumulative = 0;
  std::size_t best_prefix = 0;
  // Classic FM moves every vertex once per pass; in practice all improvement
  // comes early, so a pass aborts after a long run of non-improving moves.
  const std::size_t stall_limit = 64 + static_cast<std::size_t>(n) / 32;

  while (moves.size() - best_prefix <= stall_limit) {
    const index_t v =
        queue.next(weight0, balance.min_weight0, balance.max_weight0);
    if (v < 0) break;
    flip(v);
    cumulative += queue.gain(v);
    moves.push_back(v);
    if (cumulative > best_cumulative) {
      best_cumulative = cumulative;
      best_prefix = moves.size();
    }

    // Update neighbour gains; vertices newly touching the boundary get a
    // fresh gain computation and enter the queue.
    const auto neighbors = g.neighbors(v);
    const offset_t base = g.adj_ptr()[v];
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const index_t u = neighbors[k];
      if (queue.locked(u)) continue;
      if (!queue.tracked(u)) {
        queue.insert(u, fm_move_gain(g, part, u),
                     part[static_cast<std::size_t>(u)], g.vertex_weight(u));
        continue;
      }
      const index_t w = g.edge_weight(base + static_cast<offset_t>(k));
      // v moved to u's side iff their parts are now equal.
      queue.add(u, part[static_cast<std::size_t>(u)] ==
                           part[static_cast<std::size_t>(v)]
                       ? -2 * w
                       : 2 * w);
    }
  }

  // Roll back every move after the best prefix.
  for (std::size_t k = moves.size(); k > best_prefix; --k) flip(moves[k - 1]);
  update_boundary(g, part, best_prefix, scratch);
  ++tally.passes;
  tally.cut_improvement += best_cumulative;
  tally.moves += static_cast<std::int64_t>(moves.size());
  tally.moves_kept += static_cast<std::int64_t>(best_prefix);
  tally.deferrals += queue.deferrals();
  return best_cumulative;
}

}  // namespace

FmTally fm_refine_bisection(const Graph& g, std::vector<index_t>& part,
                            const BisectionBalance& balance, int max_passes,
                            FmScratch& scratch) {
  require(part.size() == static_cast<std::size_t>(g.num_vertices()),
          "fm_refine_bisection: partition size mismatch");
  scratch.marked.resize(static_cast<std::size_t>(g.num_vertices()), 0);
  scratch.weight0 = 0;
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    if (part[static_cast<std::size_t>(v)] == 0) {
      scratch.weight0 += g.vertex_weight(v);
    }
  }
  FmTally tally;
  for (int pass = 0; pass < max_passes; ++pass) {
    if (fm_pass(g, part, balance, scratch, tally) <= 0) break;
  }
  ORDO_COUNTER_ADD("partition.fm.passes", tally.passes);
  ORDO_COUNTER_ADD("partition.fm.cut_improvement", tally.cut_improvement);
  ORDO_COUNTER_ADD("partition.fm.moves", tally.moves);
  ORDO_COUNTER_ADD("partition.fm.moves_kept", tally.moves_kept);
  ORDO_COUNTER_ADD("partition.fm.deferrals", tally.deferrals);
  return tally;
}

std::int64_t fm_refine_bisection(const Graph& g, std::vector<index_t>& part,
                                 const BisectionBalance& balance,
                                 int max_passes) {
  require(part.size() == static_cast<std::size_t>(g.num_vertices()),
          "fm_refine_bisection: partition size mismatch");
  FmScratch scratch;
  collect_boundary(g, part, scratch.boundary);
  return fm_refine_bisection(g, part, balance, max_passes, scratch)
      .cut_improvement;
}

}  // namespace ordo
