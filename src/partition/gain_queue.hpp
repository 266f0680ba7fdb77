// Addressable gain queue shared by the graph and hypergraph FM refiners (and
// the greedy graph-growing frontier of initial_partition.cpp).
//
// Two binary max-heaps, one per side of the bisection, of vertices keyed by
// (gain, vertex id), with each vertex's heap slot recorded so that a gain
// update re-sifts its one entry in place: a heap never holds a stale entry,
// and ties break toward the higher vertex id. A heap entry is one int64,
// gain << 32 | id, whose integer order is the (gain, id) order, so gains
// must fit in int32 (checked on every insert and update). The queue also
// owns the per-vertex FM state of one pass. A vertex is untracked (no gain
// yet), queued (in its side's heap), deferred (its move would break
// balance; held in its side's min-heap by weight) or locked (moved this
// pass). A move's feasibility depends only on the mover's side and weight,
// so a side whose room is below its lightest vertex is skipped without
// popping, and deferred vertices rejoin only once the room reaches their
// weight. DESIGN §19 shows that `next` still locks the highest (gain, id)
// active vertex whose move is feasible, whatever order the vertices were
// inserted in. A reset forgets only the vertices tracked since the last
// one, so a pass costs what it touches, not the graph's size (DESIGN §24).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "sparse/types.hpp"

namespace ordo {

class FmGainQueue {
 public:
  /// Forgets every vertex and sizes the queue for `n` vertices, keeping the
  /// allocations of earlier passes. Costs the vertices tracked since the
  /// last reset, plus any growth of `n`.
  void reset(index_t n) {
    for (Side& side : sides_) {
      side.heap.clear();
      side.deferred.clear();
      side.lightest = std::numeric_limits<std::int64_t>::max();
    }
    for (const index_t v : tracked_) set_slot(v, kUntracked);
    tracked_.clear();
    slot_.resize(static_cast<std::size_t>(n), kUntracked);
    gain_.resize(static_cast<std::size_t>(n));
    side_.resize(static_cast<std::size_t>(n));
    weight_.resize(static_cast<std::size_t>(n));
    deferrals_ = 0;
  }

  /// The heap key of vertex `v` at gain `gain`: integer order on keys is
  /// (gain, id) order. Throws when the gain does not fit in int32.
  static std::int64_t key(std::int64_t gain, index_t v) {
    require(gain >= std::numeric_limits<std::int32_t>::min() &&
                gain <= std::numeric_limits<std::int32_t>::max(),
            "FmGainQueue: gain outside int32");
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(gain) << 32 |
                                     static_cast<std::uint32_t>(v));
  }

  /// True once v has a gain: queued, deferred or locked.
  bool tracked(index_t v) const { return slot(v) != kUntracked; }
  bool locked(index_t v) const { return slot(v) == kLocked; }
  bool deferred(index_t v) const { return slot(v) == kDeferred; }
  std::int64_t gain(index_t v) const {
    return gain_[static_cast<std::size_t>(v)];
  }
  /// Vertices set aside as infeasible since the last reset, counting each
  /// time a vertex is set aside again.
  std::int64_t deferrals() const { return deferrals_; }

  /// Starts tracking an untracked vertex of part `side` (0 or 1) and vertex
  /// weight `weight`, and queues it. Side and weight stay fixed until the
  /// vertex is locked.
  void insert(index_t v, std::int64_t gain, index_t side,
              std::int64_t weight) {
    const std::int64_t k = key(gain, v);
    const auto at = static_cast<std::size_t>(v);
    gain_[at] = gain;
    side_[at] = static_cast<unsigned char>(side);
    weight_[at] = weight;
    tracked_.push_back(v);
    Side& s = sides_[static_cast<std::size_t>(side)];
    s.lightest = std::min(s.lightest, weight);
    push(s, k);
  }

  /// Adds `delta` to the gain of a queued or deferred vertex.
  void add(index_t v, std::int64_t delta) {
    std::int64_t& g = gain_[static_cast<std::size_t>(v)];
    const std::int64_t k = key(g + delta, v);
    g += delta;
    const index_t at = slot(v);
    if (at < 0) return;  // deferred: the key is made when v rejoins
    std::vector<std::int64_t>& heap = side_of(v).heap;
    heap[static_cast<std::size_t>(at)] = k;
    if (delta > 0) {
      sift_up(heap, static_cast<std::size_t>(at));
    } else {
      sift_down(heap, static_cast<std::size_t>(at));
    }
  }

  /// Locks and returns the active vertex with the highest (gain, id) whose
  /// move keeps part 0's weight, now `weight0`, inside
  /// [min_weight0, max_weight0]; -1 when no active vertex qualifies. Only a
  /// committed move changes feasibility, so call this once per move.
  index_t next(std::int64_t weight0, std::int64_t min_weight0,
               std::int64_t max_weight0) {
    // A side-0 mover takes its weight out of part 0; a side-1 mover adds it.
    return pick({Range{weight0 - max_weight0, weight0 - min_weight0},
                 Range{min_weight0 - weight0, max_weight0 - weight0}});
  }

  /// Locks and returns the queued vertex with the highest (gain, id), or -1
  /// when none is left: `next` without a balance window.
  index_t pop() {
    constexpr Range kAny{std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()};
    return pick({kAny, kAny});
  }

 private:
  static constexpr index_t kUntracked = -1;
  static constexpr index_t kDeferred = -2;
  static constexpr index_t kLocked = -3;

  struct Weighed {
    std::int64_t weight;
    index_t vertex;
  };
  struct Side {
    std::vector<std::int64_t> heap;  // max-heap of keys
    std::vector<Weighed> deferred;  // min-heap by weight
    // The lightest weight queued since the last reset.
    std::int64_t lightest = std::numeric_limits<std::int64_t>::max();
  };
  // The vertex weights whose move is feasible from one side.
  struct Range {
    std::int64_t low, high;
  };

  static index_t vertex_of(std::int64_t key) {
    return static_cast<index_t>(static_cast<std::uint32_t>(key));
  }
  static bool heavier(const Weighed& a, const Weighed& b) {
    return a.weight > b.weight;
  }

  index_t slot(index_t v) const { return slot_[static_cast<std::size_t>(v)]; }
  void set_slot(index_t v, index_t at) {
    slot_[static_cast<std::size_t>(v)] = at;
  }
  Side& side_of(index_t v) {
    return sides_[side_[static_cast<std::size_t>(v)]];
  }
  std::int64_t weight(index_t v) const {
    return weight_[static_cast<std::size_t>(v)];
  }

  index_t pick(const std::array<Range, 2>& rooms) {
    Side* best = nullptr;
    for (std::size_t s = 0; s < 2; ++s) {
      Side& side = sides_[s];
      const Range room = rooms[s];
      // Every vertex of this side weighs at least `lightest`.
      if (room.high < side.lightest) continue;
      std::vector<Weighed>& deferred = side.deferred;
      while (!deferred.empty() && deferred.front().weight <= room.high) {
        const index_t v = deferred.front().vertex;
        std::pop_heap(deferred.begin(), deferred.end(), heavier);
        deferred.pop_back();
        push(side, key(gain(v), v));
      }
      std::vector<std::int64_t>& heap = side.heap;
      while (!heap.empty()) {
        const std::int64_t w = weight(vertex_of(heap.front()));
        if (w >= room.low && w <= room.high) break;
        const index_t v = pop_top(heap);
        set_slot(v, kDeferred);
        deferred.push_back(Weighed{w, v});
        std::push_heap(deferred.begin(), deferred.end(), heavier);
        ++deferrals_;
      }
      if (!heap.empty() &&
          (best == nullptr || heap.front() > best->heap.front())) {
        best = &side;
      }
    }
    if (best == nullptr) return -1;
    const index_t v = pop_top(best->heap);
    set_slot(v, kLocked);
    return v;
  }

  void place(std::vector<std::int64_t>& heap, std::size_t at,
             std::int64_t entry) {
    heap[at] = entry;
    set_slot(vertex_of(entry), static_cast<index_t>(at));
  }

  void push(Side& side, std::int64_t entry) {
    side.heap.push_back(entry);
    sift_up(side.heap, side.heap.size() - 1);
  }

  // Removes the root; the caller records where the vertex went.
  index_t pop_top(std::vector<std::int64_t>& heap) {
    const index_t top = vertex_of(heap.front());
    const std::int64_t last = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
      heap.front() = last;
      sift_down(heap, 0);
    }
    return top;
  }

  void sift_up(std::vector<std::int64_t>& heap, std::size_t at) {
    const std::int64_t entry = heap[at];
    while (at > 0) {
      const std::size_t parent = (at - 1) / 2;
      if (entry <= heap[parent]) break;
      place(heap, at, heap[parent]);
      at = parent;
    }
    place(heap, at, entry);
  }

  void sift_down(std::vector<std::int64_t>& heap, std::size_t at) {
    const std::int64_t entry = heap[at];
    const std::size_t size = heap.size();
    for (std::size_t child = 2 * at + 1; child < size; child = 2 * at + 1) {
      if (child + 1 < size && heap[child + 1] > heap[child]) ++child;
      if (heap[child] <= entry) break;
      place(heap, at, heap[child]);
      at = child;
    }
    place(heap, at, entry);
  }

  std::array<Side, 2> sides_;
  std::vector<index_t> slot_;  // heap position, or kUntracked/kDeferred/kLocked
  std::vector<std::int64_t> gain_;
  std::vector<unsigned char> side_;
  std::vector<std::int64_t> weight_;
  std::vector<index_t> tracked_;  // tracked since the last reset
  std::int64_t deferrals_ = 0;
};

/// Per-call totals of an FM refiner, added to its counters once per call.
struct FmTally {
  std::int64_t passes = 0;
  std::int64_t cut_improvement = 0;
  std::int64_t moves = 0;       // moves made, before rollback
  std::int64_t moves_kept = 0;  // moves in the best prefix, kept
  std::int64_t deferrals = 0;   // moves found infeasible and set aside
};

}  // namespace ordo
