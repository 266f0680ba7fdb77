// Exact LRU stack-distance analysis of an access stream.
//
// For every access, the stack distance is the number of *distinct* other
// cache lines touched since the previous access to the same line (infinite
// for a line's first access). A fully-associative LRU cache of capacity C
// lines hits exactly when the stack distance is < C, so one analysis of a
// stream yields the miss count for every capacity at once. The performance
// model analyzes each reordered matrix once and prices every machine's
// cache hierarchy, for every thread's segment of the stream, from that one
// profile; count_misses answers several capacities in one walk.
//
// The classic O(n log n) algorithm is used: each line's latest access owns
// a slot, handed out in time order, and a Fenwick tree counts the slots
// that died since (their line was touched again); the stack distance is
// the slots handed out after the line's own, minus the dead among them. An
// access repeating the line just before it has distance 0 and takes no
// slot and no tree work, and the live slots are packed to the front when
// the slots run out, so the tree stays about twice the line count
// (DESIGN.md §22).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sparse/types.hpp"

namespace ordo {

/// Fenwick tree (binary indexed tree) over [0, n) with +/- point updates and
/// prefix-sum queries, holding 32-bit counts: every partial sum must fit in
/// an int32 (the stack-distance engine holds at most one mark per slot).
/// Exposed for reuse and direct testing.
class FenwickTree {
 public:
  explicit FenwickTree(std::size_t n) : tree_(n + 1, 0) {}

  /// Adds `delta` at position i.
  void add(std::size_t i, std::int32_t delta) {
    for (std::size_t k = i + 1; k < tree_.size(); k += k & (~k + 1)) {
      tree_[k] += delta;
    }
  }

  /// Sum over [0, i).
  std::int32_t prefix_sum(std::size_t i) const {
    std::int32_t sum = 0;
    for (std::size_t k = i; k > 0; k -= k & (~k + 1)) sum += tree_[k];
    return sum;
  }

  /// Sum over [lo, hi).
  std::int32_t range_sum(std::size_t lo, std::size_t hi) const {
    return hi > lo ? prefix_sum(hi) - prefix_sum(lo) : 0;
  }

 private:
  std::vector<std::int32_t> tree_;
};

/// Per-access reuse information for a line-id stream.
struct ReuseProfile {
  /// Sentinel distance for a line's first access (cold miss).
  static constexpr index_t kCold = std::numeric_limits<index_t>::max();

  /// stack_distance[k]: distinct other lines touched between access k and
  /// the previous access to the same line; kCold for first accesses.
  std::vector<index_t> stack_distance;
  /// previous_access[k]: stream index of the previous access to the same
  /// line, or -1. Lets a consumer re-evaluate a *segment* [s, e) of the
  /// stream: within the segment an access is cold iff previous_access < s,
  /// and otherwise its in-segment stack distance equals the global one.
  /// 32-bit, like the distances, so the miss count runs on 32-bit lanes.
  std::vector<std::int32_t> previous_access;
};

/// Analyzes the stream. `num_lines` must exceed every line id, and the
/// stream must be shorter than 2^31 accesses.
ReuseProfile analyze_reuse(std::span<const index_t> lines, index_t num_lines);

/// Misses of a fully-associative LRU cache with `capacity_lines` lines over
/// the sub-stream [begin, end) of the analyzed stream, treating accesses
/// whose previous access precedes `begin` as cold.
std::int64_t count_misses(const ReuseProfile& profile, offset_t begin,
                          offset_t end, index_t capacity_lines);

/// The same for several capacities in one walk of [begin, end):
/// misses[i] is count_misses(profile, begin, end, capacities[i]).
void count_misses(const ReuseProfile& profile, offset_t begin, offset_t end,
                  std::span<const index_t> capacities,
                  std::span<std::int64_t> misses);

/// Reference LRU simulator (explicit recency list); O(n·C). Used to validate
/// the stack-distance engine in tests.
std::int64_t simulate_lru_misses(std::span<const index_t> lines,
                                 index_t capacity_lines);

}  // namespace ordo
