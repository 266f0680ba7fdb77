#include "partition/hypergraph_partitioner.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "obs/obs.hpp"

namespace ordo {
namespace {

// Nets larger than this are skipped when scoring match candidates; huge nets
// connect nearly everything and add cost without guiding the matching.
constexpr std::size_t kMaxNetSizeForMatching = 64;

std::vector<index_t> heavy_connectivity_matching(const Hypergraph& h,
                                                 std::uint64_t seed) {
  const index_t n = h.num_vertices();
  std::vector<index_t> match(static_cast<std::size_t>(n), -1);
  std::vector<index_t> visit_order(static_cast<std::size_t>(n));
  std::iota(visit_order.begin(), visit_order.end(), index_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(visit_order.begin(), visit_order.end(), rng);

  // Scratch scoring array, reset per vertex via a touched list.
  std::vector<index_t> score(static_cast<std::size_t>(n), 0);
  std::vector<index_t> touched;
  for (index_t v : visit_order) {
    if (match[static_cast<std::size_t>(v)] >= 0) continue;
    touched.clear();
    for (index_t e : h.vertex_nets(v)) {
      const auto pins = h.net_pins(e);
      if (pins.size() > kMaxNetSizeForMatching) continue;
      for (index_t u : pins) {
        if (u == v || match[static_cast<std::size_t>(u)] >= 0) continue;
        if (score[static_cast<std::size_t>(u)] == 0) touched.push_back(u);
        score[static_cast<std::size_t>(u)] += h.net_weight(e);
      }
    }
    index_t best = -1, best_score = 0;
    for (index_t u : touched) {
      if (score[static_cast<std::size_t>(u)] > best_score ||
          (score[static_cast<std::size_t>(u)] == best_score && best >= 0 &&
           u < best)) {
        best = u;
        best_score = score[static_cast<std::size_t>(u)];
      }
      score[static_cast<std::size_t>(u)] = 0;
    }
    if (best >= 0) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    } else {
      match[static_cast<std::size_t>(v)] = v;
    }
  }
  return match;
}

}  // namespace

HypergraphCoarseLevel coarsen_hypergraph_once(const Hypergraph& h,
                                              std::uint64_t seed) {
  const std::vector<index_t> match = heavy_connectivity_matching(h, seed);
  const index_t n = h.num_vertices();

  HypergraphCoarseLevel level;
  level.fine_to_coarse.assign(static_cast<std::size_t>(n), -1);
  index_t coarse_count = 0;
  std::vector<index_t> coarse_weights;
  for (index_t v = 0; v < n; ++v) {
    const index_t partner = match[static_cast<std::size_t>(v)];
    if (partner >= v) {
      level.fine_to_coarse[static_cast<std::size_t>(v)] = coarse_count;
      index_t weight = h.vertex_weight(v);
      if (partner != v) {
        level.fine_to_coarse[static_cast<std::size_t>(partner)] = coarse_count;
        weight += h.vertex_weight(partner);
      }
      coarse_weights.push_back(weight);
      ++coarse_count;
    }
  }

  // Remap nets, deduplicating pins; drop nets with fewer than two pins.
  std::vector<offset_t> net_ptr{0};
  std::vector<index_t> pins;
  std::vector<index_t> net_weights;
  std::vector<index_t> seen_at(static_cast<std::size_t>(coarse_count), -1);
  // The coarse pins are at most the fine ones: one allocation.
  pins.reserve(static_cast<std::size_t>(h.num_pins()));
  for (index_t e = 0; e < h.num_nets(); ++e) {
    const std::size_t begin = pins.size();
    for (index_t pin : h.net_pins(e)) {
      const index_t c = level.fine_to_coarse[static_cast<std::size_t>(pin)];
      if (seen_at[static_cast<std::size_t>(c)] != e) {
        seen_at[static_cast<std::size_t>(c)] = e;
        pins.push_back(c);
      }
    }
    if (pins.size() - begin < 2) {
      pins.resize(begin);  // degenerate net: cannot be cut, drop it
    } else {
      net_ptr.push_back(static_cast<offset_t>(pins.size()));
      net_weights.push_back(h.net_weight(e));
    }
  }
  level.hypergraph =
      Hypergraph(coarse_count, std::move(net_ptr), std::move(pins),
                 std::move(coarse_weights), std::move(net_weights));
  return level;
}

namespace {

// Grows part 0 by hypergraph BFS from `start` until it reaches the target
// weight, restarting from an unassigned vertex when the frontier empties.
// `queued` and `frontier` (a FIFO read from `head`) are scratch.
void grow_bisection(const Hypergraph& h, index_t start,
                    std::int64_t target_weight, std::vector<char>& queued,
                    std::vector<index_t>& frontier,
                    std::vector<index_t>& part) {
  const index_t n = h.num_vertices();
  part.assign(static_cast<std::size_t>(n), 1);
  queued.assign(static_cast<std::size_t>(n), 0);
  frontier.clear();
  std::size_t head = 0;
  frontier.push_back(start);
  queued[static_cast<std::size_t>(start)] = 1;
  std::int64_t weight0 = 0;
  index_t scan = 0;
  while (weight0 < target_weight) {
    if (head == frontier.size()) {
      while (scan < n && part[static_cast<std::size_t>(scan)] == 0) ++scan;
      if (scan >= n) break;
      if (!queued[static_cast<std::size_t>(scan)]) {
        frontier.push_back(scan);
        queued[static_cast<std::size_t>(scan)] = 1;
      } else {
        ++scan;
        continue;
      }
    }
    const index_t v = frontier[head++];
    if (part[static_cast<std::size_t>(v)] == 0) continue;
    part[static_cast<std::size_t>(v)] = 0;
    weight0 += h.vertex_weight(v);
    for (index_t e : h.vertex_nets(v)) {
      const auto pins = h.net_pins(e);
      if (pins.size() > kMaxNetSizeForMatching * 4) continue;
      for (index_t u : pins) {
        if (part[static_cast<std::size_t>(u)] == 1 &&
            !queued[static_cast<std::size_t>(u)]) {
          queued[static_cast<std::size_t>(u)] = 1;
          frontier.push_back(u);
        }
      }
    }
  }
}

// Brings scratch.cut_nets up to date after a pass that kept the first
// `kept` of its moves: only a net of a kept move can have changed state.
void update_cut_nets(const Hypergraph& h, std::size_t kept,
                     HgFmScratch& scratch) {
  if (kept == 0) return;
  std::vector<index_t>& cut_nets = scratch.cut_nets;
  for (std::size_t k = 0; k < kept; ++k) {
    for (index_t e : h.vertex_nets(scratch.moves[k])) {
      char& listed = scratch.listed[static_cast<std::size_t>(e)];
      if (listed == 0) {
        listed = 1;
        cut_nets.push_back(e);
      }
    }
  }
  std::size_t out = 0;
  for (const index_t e : cut_nets) {
    const auto& counts = scratch.pins_in[static_cast<std::size_t>(e)];
    if (counts[0] > 0 && counts[1] > 0) {
      cut_nets[out++] = e;
    } else {
      scratch.listed[static_cast<std::size_t>(e)] = 0;
    }
  }
  cut_nets.resize(out);
}

// One FM pass under the cut-net metric. Only boundary vertices (pins of cut
// nets) are seeded into the gain queue, in an order that changes no move
// (DESIGN §19), and gains are maintained with exact delta updates on each
// move — a net's pins are only revisited when its pin counts cross a
// critical value (0, 1 or 2 on either side), which is the standard FM trick
// that keeps a pass near-linear in the number of pins.
std::int64_t hypergraph_fm_pass(const Hypergraph& h,
                                std::vector<index_t>& part,
                                const BisectionBalance& balance,
                                HgFmScratch& scratch, FmTally& tally) {
  const index_t n = h.num_vertices();
  auto& pins_in = scratch.pins_in;

  // Cut-net gain of moving v from side s to 1-s:
  //   +w(e) for nets where v is the last pin on side s (net becomes uncut),
  //   -w(e) for nets fully on side s with >1 pins (net becomes cut).
  auto move_gain = [&](index_t v) {
    const index_t s = part[static_cast<std::size_t>(v)];
    std::int64_t gain = 0;
    for (index_t e : h.vertex_nets(v)) {
      const auto& counts = pins_in[static_cast<std::size_t>(e)];
      const index_t same = counts[static_cast<std::size_t>(s)];
      const index_t other = counts[static_cast<std::size_t>(1 - s)];
      if (same == 1 && other >= 1) gain += h.net_weight(e);
      if (other == 0 && same >= 2) gain -= h.net_weight(e);
    }
    return gain;
  };

  FmGainQueue& queue = scratch.queue;
  queue.reset(n);
  auto insert = [&](index_t v) {
    queue.insert(v, move_gain(v), part[static_cast<std::size_t>(v)],
                 h.vertex_weight(v));
  };
  for (const index_t e : scratch.cut_nets) {
    for (index_t pin : h.net_pins(e)) {
      if (!queue.tracked(pin)) insert(pin);
    }
  }

  std::int64_t& weight0 = scratch.weight0;
  // Moves v to the other side, keeping part 0's weight in step; the caller
  // updates the pin counts.
  auto flip = [&](index_t v) {
    index_t& side = part[static_cast<std::size_t>(v)];
    weight0 += side == 0 ? -h.vertex_weight(v) : h.vertex_weight(v);
    side = 1 - side;
  };

  std::vector<index_t>& moves = scratch.moves;
  moves.clear();
  std::int64_t cumulative = 0, best_cumulative = 0;
  std::size_t best_prefix = 0;
  // Abort the pass after a long run of non-improving moves (see the graph
  // FM for rationale).
  const std::size_t stall_limit = 64 + static_cast<std::size_t>(n) / 32;
  while (moves.size() - best_prefix <= stall_limit) {
    const index_t v =
        queue.next(weight0, balance.min_weight0, balance.max_weight0);
    if (v < 0) break;
    const index_t from = part[static_cast<std::size_t>(v)];
    flip(v);
    cumulative += queue.gain(v);
    moves.push_back(v);
    if (cumulative > best_cumulative) {
      best_cumulative = cumulative;
      best_prefix = moves.size();
    }

    // Vertices that newly reach the boundary are enqueued only after every
    // net of v has had its counts updated, so their full gain is computed
    // against the post-move state.
    std::vector<index_t>& newly_boundary = scratch.newly_boundary;
    newly_boundary.clear();
    for (index_t e : h.vertex_nets(v)) {
      auto& counts = pins_in[static_cast<std::size_t>(e)];
      // Pin counts *before* the move; v still counts toward `from`.
      const index_t f = counts[static_cast<std::size_t>(from)];
      const index_t t = counts[static_cast<std::size_t>(1 - from)];
      const index_t w = h.net_weight(e);
      // Delta rules for the cut-net gain (derived from the gain definition
      // above): a pin's gain only changes when the net's counts cross a
      // critical value.
      if (f == 1 || f == 2 || t == 0 || t == 1) {
        for (index_t u : h.net_pins(e)) {
          if (queue.locked(u)) continue;  // v itself is locked too
          if (!queue.tracked(u)) {
            newly_boundary.push_back(u);
            continue;
          }
          std::int64_t delta = 0;
          if (part[static_cast<std::size_t>(u)] == from) {
            if (f == 2) delta += w;  // u becomes the last `from` pin
            if (t == 0) delta += w;  // e is no longer uncut-on-`from`
          } else {
            if (f == 1) delta -= w;  // e becomes uncut-on-`to`
            if (t == 1) delta -= w;  // u is no longer the last `to` pin
          }
          if (delta != 0) queue.add(u, delta);
        }
      }
      counts[static_cast<std::size_t>(from)]--;
      counts[static_cast<std::size_t>(1 - from)]++;
    }
    for (index_t u : newly_boundary) {
      if (!queue.tracked(u)) insert(u);
    }
  }

  // Roll back every move after the best prefix, pin counts included.
  for (std::size_t k = moves.size(); k > best_prefix; --k) {
    const index_t v = moves[k - 1];
    const auto side =
        static_cast<std::size_t>(part[static_cast<std::size_t>(v)]);
    for (index_t e : h.vertex_nets(v)) {
      pins_in[static_cast<std::size_t>(e)][side]--;
      pins_in[static_cast<std::size_t>(e)][1 - side]++;
    }
    flip(v);
  }
  update_cut_nets(h, best_prefix, scratch);
  ++tally.passes;
  tally.cut_improvement += best_cumulative;
  tally.moves += static_cast<std::int64_t>(moves.size());
  tally.moves_kept += static_cast<std::int64_t>(best_prefix);
  tally.deferrals += queue.deferrals();
  return best_cumulative;
}

}  // namespace

FmTally hypergraph_fm_refine(const Hypergraph& h, std::vector<index_t>& part,
                             const BisectionBalance& balance, int max_passes,
                             HgFmScratch& scratch) {
  require(part.size() == static_cast<std::size_t>(h.num_vertices()),
          "hypergraph_fm_refine: partition size mismatch");
  const auto nets = static_cast<std::size_t>(h.num_nets());
  scratch.pins_in.assign(nets, {0, 0});
  scratch.listed.assign(nets, 0);
  scratch.cut_nets.clear();
  for (index_t e = 0; e < h.num_nets(); ++e) {
    auto& counts = scratch.pins_in[static_cast<std::size_t>(e)];
    for (index_t pin : h.net_pins(e)) {
      counts[static_cast<std::size_t>(part[static_cast<std::size_t>(pin)])]++;
    }
    if (counts[0] > 0 && counts[1] > 0) {
      scratch.listed[static_cast<std::size_t>(e)] = 1;
      scratch.cut_nets.push_back(e);
    }
  }
  scratch.weight0 = 0;
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    if (part[static_cast<std::size_t>(v)] == 0) {
      scratch.weight0 += h.vertex_weight(v);
    }
  }
  FmTally tally;
  for (int pass = 0; pass < max_passes; ++pass) {
    if (hypergraph_fm_pass(h, part, balance, scratch, tally) <= 0) break;
  }
  ORDO_COUNTER_ADD("partition.hp.fm.passes", tally.passes);
  ORDO_COUNTER_ADD("partition.hp.fm.cut_improvement", tally.cut_improvement);
  ORDO_COUNTER_ADD("partition.hp.fm.moves", tally.moves);
  ORDO_COUNTER_ADD("partition.hp.fm.moves_kept", tally.moves_kept);
  ORDO_COUNTER_ADD("partition.hp.fm.deferrals", tally.deferrals);
  return tally;
}

const std::vector<index_t>& HypergraphBisector::bisect(
    const Hypergraph& h, double target_fraction,
    const PartitionOptions& options) {
  require(h.num_vertices() > 0, "bisect_hypergraph: empty hypergraph");

  std::vector<HypergraphCoarseLevel> hierarchy;
  const Hypergraph* current = &h;
  std::uint64_t seed = options.seed;
  {
    ORDO_SCOPE("partition/coarsen");
    while (current->num_vertices() > options.coarsen_to) {
      HypergraphCoarseLevel level = coarsen_hypergraph_once(*current, seed++);
      if (level.hypergraph.num_vertices() >
          static_cast<index_t>(0.9 * current->num_vertices())) {
        break;
      }
      hierarchy.push_back(std::move(level));
      current = &hierarchy.back().hypergraph;
    }
  }
  ORDO_COUNTER_ADD("partition.hp.bisections", 1);
  ORDO_COUNTER_ADD("partition.hp.coarsen_levels",
                   static_cast<std::int64_t>(hierarchy.size()));

  {
    ORDO_SCOPE("partition/initial");
    const std::int64_t target_weight = static_cast<std::int64_t>(
        static_cast<double>(current->total_vertex_weight()) * target_fraction +
        0.5);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<index_t> dist(0,
                                                current->num_vertices() - 1);
    grow_bisection(*current, dist(rng), target_weight, queued_, frontier_,
                   part_);
    hypergraph_fm_refine(
        *current, part_,
        make_balance(current->total_vertex_weight(), target_fraction,
                     options.imbalance_tolerance),
        options.refine_passes, fm_);
  }

  {
    ORDO_SCOPE("partition/refine");
    for (std::size_t level = hierarchy.size(); level > 0; --level) {
      const Hypergraph& fine =
          level >= 2 ? hierarchy[level - 2].hypergraph : h;
      const std::vector<index_t>& fine_to_coarse =
          hierarchy[level - 1].fine_to_coarse;
      fine_part_.resize(static_cast<std::size_t>(fine.num_vertices()));
      for (index_t v = 0; v < fine.num_vertices(); ++v) {
        fine_part_[static_cast<std::size_t>(v)] =
            part_[static_cast<std::size_t>(
                fine_to_coarse[static_cast<std::size_t>(v)])];
      }
      part_.swap(fine_part_);
      hypergraph_fm_refine(
          fine, part_,
          make_balance(fine.total_vertex_weight(), target_fraction,
                       options.imbalance_tolerance),
          options.refine_passes, fm_);
    }
  }
  return part_;
}

}  // namespace ordo
