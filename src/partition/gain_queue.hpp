// Addressable gain queue shared by the graph and hypergraph FM refiners (and
// the greedy graph-growing frontier of initial_partition.cpp).
//
// A binary max-heap of vertices keyed by (gain, vertex id), with each
// vertex's heap slot recorded so that a gain update re-sifts its one entry in
// place: the heap never holds a stale entry, and ties break toward the higher
// vertex id. The queue also owns the per-vertex FM state of one pass. A vertex
// is untracked (no gain yet), queued (in the heap), deferred (its move would
// break balance) or locked (moved this pass). DESIGN §17 shows why this pops
// vertices in exactly the order of a lazily invalidated
// std::priority_queue<std::pair<gain, id>> that re-pushes every deferred
// entry after each move.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/types.hpp"

namespace ordo {

class FmGainQueue {
 public:
  /// Forgets every vertex and sizes the queue for `n` vertices, keeping the
  /// allocations of earlier passes.
  void reset(index_t n) {
    heap_.clear();
    deferred_.clear();
    slot_.assign(static_cast<std::size_t>(n), kUntracked);
    gain_.resize(static_cast<std::size_t>(n));
  }

  /// True once v has a gain: queued, deferred or locked.
  bool tracked(index_t v) const { return slot(v) != kUntracked; }
  bool locked(index_t v) const { return slot(v) == kLocked; }
  std::int64_t gain(index_t v) const {
    return gain_[static_cast<std::size_t>(v)];
  }

  /// Starts tracking an untracked vertex and queues it.
  void insert(index_t v, std::int64_t gain) {
    gain_[static_cast<std::size_t>(v)] = gain;
    push(v);
  }

  /// Adds `delta` to the gain of a queued or deferred vertex.
  void add(index_t v, std::int64_t delta) {
    gain_[static_cast<std::size_t>(v)] += delta;
    const index_t at = slot(v);
    if (at < 0) return;  // deferred: the gain is read when v rejoins
    heap_[static_cast<std::size_t>(at)].gain = gain(v);
    if (delta > 0) {
      sift_up(static_cast<std::size_t>(at));
    } else {
      sift_down(static_cast<std::size_t>(at));
    }
  }

  /// Locks and returns the queued vertex with the highest (gain, id) whose
  /// move `feasible(v)` allows, or -1 when no queued vertex is feasible.
  /// Higher-keyed infeasible vertices are deferred on the way. Deferred
  /// vertices that `feasible` allows again rejoin the heap first; since only
  /// a committed move changes feasibility, call this once per move.
  template <class Feasible>
  index_t next(Feasible&& feasible) {
    std::size_t still = 0;
    for (const index_t v : deferred_) {
      if (feasible(v)) {
        push(v);
      } else {
        deferred_[still++] = v;
      }
    }
    deferred_.resize(still);
    while (!heap_.empty()) {
      const index_t v = pop_top();
      if (feasible(v)) {
        set_slot(v, kLocked);
        return v;
      }
      set_slot(v, kDeferred);
      deferred_.push_back(v);
    }
    return -1;
  }

 private:
  static constexpr index_t kUntracked = -1;
  static constexpr index_t kDeferred = -2;
  static constexpr index_t kLocked = -3;

  struct Entry {
    std::int64_t gain;
    index_t vertex;
  };

  static bool above(const Entry& a, const Entry& b) {
    return a.gain != b.gain ? a.gain > b.gain : a.vertex > b.vertex;
  }

  index_t slot(index_t v) const { return slot_[static_cast<std::size_t>(v)]; }
  void set_slot(index_t v, index_t at) {
    slot_[static_cast<std::size_t>(v)] = at;
  }

  void place(std::size_t at, const Entry& entry) {
    heap_[at] = entry;
    set_slot(entry.vertex, static_cast<index_t>(at));
  }

  void push(index_t v) {
    heap_.push_back(Entry{gain(v), v});
    sift_up(heap_.size() - 1);
  }

  // Removes the root; the caller records where the vertex went.
  index_t pop_top() {
    const index_t top = heap_.front().vertex;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      sift_down(0);
    }
    return top;
  }

  void sift_up(std::size_t at) {
    const Entry entry = heap_[at];
    while (at > 0) {
      const std::size_t parent = (at - 1) / 2;
      if (!above(entry, heap_[parent])) break;
      place(at, heap_[parent]);
      at = parent;
    }
    place(at, entry);
  }

  void sift_down(std::size_t at) {
    const Entry entry = heap_[at];
    const std::size_t size = heap_.size();
    for (std::size_t child = 2 * at + 1; child < size; child = 2 * at + 1) {
      if (child + 1 < size && above(heap_[child + 1], heap_[child])) ++child;
      if (!above(heap_[child], entry)) break;
      place(at, heap_[child]);
      at = child;
    }
    place(at, entry);
  }

  std::vector<Entry> heap_;
  std::vector<index_t> slot_;  // heap position, or kUntracked/kDeferred/kLocked
  std::vector<std::int64_t> gain_;
  std::vector<index_t> deferred_;
};

/// Per-call totals of an FM refiner, added to its counters once per call.
struct FmTally {
  std::int64_t passes = 0;
  std::int64_t cut_improvement = 0;
  std::int64_t moves = 0;       // moves made, before rollback
  std::int64_t moves_kept = 0;  // moves in the best prefix, kept
};

}  // namespace ordo
