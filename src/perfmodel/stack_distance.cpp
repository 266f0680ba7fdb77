#include "perfmodel/stack_distance.hpp"

#include <algorithm>
#include <list>
#include <unordered_map>

namespace ordo {

ReuseProfile analyze_reuse(std::span<const index_t> lines, index_t num_lines) {
  const std::size_t n = lines.size();
  require(n <= static_cast<std::size_t>(
                   std::numeric_limits<std::int32_t>::max()),
          "analyze_reuse: stream of 2^31 or more accesses");
  // One range check and one run count before the loop, not per access.
  bool in_range = true;
  std::size_t num_runs = 0;
  for (std::size_t t = 0; t < n; ++t) {
    in_range &= lines[t] >= 0 && lines[t] < num_lines;
    num_runs += t == 0 || lines[t] != lines[t - 1];
  }
  require(in_range, "analyze_reuse: line out of range");

  ReuseProfile profile;
  profile.stack_distance.resize(n);
  profile.previous_access.resize(n);
  // Every line's latest access owns a slot; slots are handed out in time
  // order, and when a line is touched again its old slot dies. The stack
  // distance of an access is the number of live slots after its line's
  // old one: the slots handed out since, minus the dead among them, which
  // a Fenwick tree counts. A run of one line takes a single slot, since no
  // other line is touched inside it. At most num_lines slots are live, so
  // when the slots run out the live ones are packed to the front in order,
  // which keeps the tree at about twice the line count rather than the
  // stream length.
  const std::size_t num_slots = std::min(
      num_runs, 2 * static_cast<std::size_t>(std::max<index_t>(num_lines, 1)));
  // Per line: its latest access, and the slot that access owns.
  struct LineState {
    std::int32_t access = -1;
    std::int32_t slot = 0;
  };
  std::vector<LineState> last(static_cast<std::size_t>(num_lines));
  std::vector<index_t> slot_line(num_slots);  // -1 once the slot dies
  FenwickTree dead(num_slots);
  std::size_t next_slot = 0;
  std::int32_t num_dead = 0;
  for (std::int32_t t = 0; t < static_cast<std::int32_t>(n); ++t) {
    const index_t line = lines[t];
    if (t > 0 && line == lines[t - 1]) {
      // Same line as the access before: distance 0, same run, no tree work.
      profile.previous_access[t] = t - 1;
      profile.stack_distance[t] = 0;
      last[static_cast<std::size_t>(line)].access = t;
      continue;
    }
    LineState& state = last[static_cast<std::size_t>(line)];
    const std::int32_t prev = state.access;
    profile.previous_access[t] = prev;
    if (prev < 0) {
      profile.stack_distance[t] = ReuseProfile::kCold;
    } else {
      // Slots handed out after the old one, minus the dead among them (no
      // slot at or past next_slot is dead).
      const std::size_t own = static_cast<std::size_t>(state.slot);
      profile.stack_distance[t] = static_cast<index_t>(next_slot - 1 - own) -
                                  (num_dead - dead.prefix_sum(own + 1));
      dead.add(own, +1);
      ++num_dead;
      slot_line[own] = -1;
    }
    if (next_slot == num_slots) {
      // Pack the live slots to the front, in order; none is dead after.
      std::size_t packed = 0;
      for (std::size_t s = 0; s < num_slots; ++s) {
        slot_line[packed] = slot_line[s];
        packed += slot_line[s] >= 0;
      }
      for (std::size_t s = 0; s < packed; ++s) {
        last[static_cast<std::size_t>(slot_line[s])].slot =
            static_cast<std::int32_t>(s);
      }
      dead = FenwickTree(num_slots);
      num_dead = 0;
      next_slot = packed;
    }
    slot_line[next_slot] = line;
    state.slot = static_cast<std::int32_t>(next_slot++);
    state.access = t;
  }
  return profile;
}

std::int64_t count_misses(const ReuseProfile& profile, offset_t begin,
                          offset_t end, index_t capacity_lines) {
  std::int64_t misses = 0;
  count_misses(profile, begin, end, std::span(&capacity_lines, 1),
               std::span(&misses, 1));
  return misses;
}

void count_misses(const ReuseProfile& profile, offset_t begin, offset_t end,
                  std::span<const index_t> capacities,
                  std::span<std::int64_t> misses) {
  require(misses.size() == capacities.size(),
          "count_misses: one miss count per capacity");
  std::fill(misses.begin(), misses.end(), 0);
  // analyze_reuse keeps streams below 2^31 accesses, so `begin` fits the
  // 32-bit lanes the loops below run on.
  const std::int32_t first = static_cast<std::int32_t>(begin);
  // Blocks keep their distances in L1 and each capacity's block count well
  // inside 32 bits.
  constexpr offset_t kBlock = 1024;
  index_t block[kBlock];
  for (offset_t b = begin; b < end; b += kBlock) {
    const int len = static_cast<int>(std::min(kBlock, end - b));
    const std::int32_t* previous = profile.previous_access.data() + b;
    const index_t* distance = profile.stack_distance.data() + b;
    // A cold access takes distance kCold, which misses every capacity.
    // Branch-free: distances are non-negative and kCold is every bit below
    // the sign, so OR-ing it in selects it.
    for (int j = 0; j < len; ++j) {
      const index_t cold = -static_cast<index_t>(previous[j] < first);
      block[j] = distance[j] | (cold & ReuseProfile::kCold);
    }
    // Three capacities per sweep of the block (one machine's L1, L2 and
    // LLC in the model), then any rest one at a time.
    std::size_t c = 0;
    for (; c + 3 <= capacities.size(); c += 3) {
      const index_t c0 = capacities[c];
      const index_t c1 = capacities[c + 1];
      const index_t c2 = capacities[c + 2];
      std::int32_t m0 = 0, m1 = 0, m2 = 0;
      for (int j = 0; j < len; ++j) {
        m0 += block[j] >= c0;
        m1 += block[j] >= c1;
        m2 += block[j] >= c2;
      }
      misses[c] += m0;
      misses[c + 1] += m1;
      misses[c + 2] += m2;
    }
    for (; c < capacities.size(); ++c) {
      const index_t c0 = capacities[c];
      std::int32_t m0 = 0;
      for (int j = 0; j < len; ++j) m0 += block[j] >= c0;
      misses[c] += m0;
    }
  }
}

std::int64_t simulate_lru_misses(std::span<const index_t> lines,
                                 index_t capacity_lines) {
  std::list<index_t> recency;  // front = most recent
  std::unordered_map<index_t, std::list<index_t>::iterator> where;
  std::int64_t misses = 0;
  for (index_t line : lines) {
    const auto it = where.find(line);
    if (it != where.end()) {
      recency.erase(it->second);
      where.erase(it);
    } else {
      ++misses;
      if (static_cast<index_t>(recency.size()) ==
          capacity_lines) {  // evict LRU
        where.erase(recency.back());
        recency.pop_back();
      }
    }
    recency.push_front(line);
    where[line] = recency.begin();
  }
  return misses;
}

}  // namespace ordo
