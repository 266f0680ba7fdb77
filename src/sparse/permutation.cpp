#include "sparse/permutation.hpp"

#include <numeric>
#include <random>
#include <string>

namespace ordo {

Permutation identity_permutation(index_t n) {
  Permutation perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), index_t{0});
  return perm;
}

bool is_valid_permutation(const Permutation& perm) {
  const std::size_t n = perm.size();
  std::vector<bool> seen(n, false);
  for (index_t p : perm) {
    if (p < 0 || static_cast<std::size_t>(p) >= n) return false;
    if (seen[static_cast<std::size_t>(p)]) return false;
    seen[static_cast<std::size_t>(p)] = true;
  }
  return true;
}

void require_valid_permutation(const Permutation& perm, const char* who) {
  require(is_valid_permutation(perm),
          std::string(who) + ": not a valid permutation");
}

Permutation invert_permutation(const Permutation& perm) {
  // Inverting validates in the same pass: every entry must be in range and
  // hit a slot no earlier entry hit.
  Permutation inv(perm.size(), -1);
  bool valid = true;
  for (std::size_t i = 0; i < perm.size() && valid; ++i) {
    // A negative entry converts to a value past the end.
    const auto p = static_cast<std::size_t>(perm[i]);
    valid = p < inv.size() && inv[p] < 0;
    if (valid) inv[p] = static_cast<index_t>(i);
  }
  require(valid, "invert_permutation: not a valid permutation");
  return inv;
}

bool is_identity_permutation(const Permutation& perm) {
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] != static_cast<index_t>(i)) return false;
  }
  return true;
}

Permutation compose_permutations(const Permutation& first,
                                 const Permutation& second) {
  require_valid_permutation(first, "compose_permutations(first)");
  require_valid_permutation(second, "compose_permutations(second)");
  require(first.size() == second.size(),
          "compose_permutations: length mismatch");
  // Position i of the final object holds position second[i] of the
  // intermediate object, which holds original index first[second[i]].
  Permutation out(first.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = first[static_cast<std::size_t>(second[i])];
  }
  return out;
}

Permutation random_permutation(index_t n, std::uint64_t seed) {
  Permutation perm = identity_permutation(n);
  std::mt19937_64 rng(seed);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::uniform_int_distribution<std::size_t> dist(0, i - 1);
    std::swap(perm[i - 1], perm[dist(rng)]);
  }
  return perm;
}

}  // namespace ordo
