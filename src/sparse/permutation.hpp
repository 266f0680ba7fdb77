// Permutation utilities.
//
// A permutation is represented as a vector `perm` where perm[new_index] ==
// old_index, i.e. the matrix row that ends up in position i of the reordered
// matrix is row perm[i] of the original. This is the "old-of-new" convention
// used by SuiteSparse's AMD and by METIS' iperm output.
#pragma once

#include <cstddef>
#include <vector>

#include "sparse/types.hpp"

namespace ordo {

using Permutation = std::vector<index_t>;

/// Returns the identity permutation of length n.
Permutation identity_permutation(index_t n);

/// True when `perm` is a bijection on {0, ..., n-1} with n == perm.size().
bool is_valid_permutation(const Permutation& perm);

/// Throws invalid_argument_error when `perm` is not a valid permutation.
void require_valid_permutation(const Permutation& perm, const char* who);

/// Returns the inverse permutation: inv[perm[i]] == i. Throws
/// invalid_argument_error when `perm` is not a valid permutation, so callers
/// that invert need no separate validation.
Permutation invert_permutation(const Permutation& perm);

/// True when perm[i] == i for every i (no allocation).
bool is_identity_permutation(const Permutation& perm);

/// Returns the composition `second ∘ first`: applying the result is the same
/// as applying `first`, then `second` to the already-permuted object.
Permutation compose_permutations(const Permutation& first,
                                 const Permutation& second);

/// Returns a uniformly random permutation of length n (Fisher–Yates with a
/// splitmix-seeded 64-bit generator, deterministic for a given seed).
Permutation random_permutation(index_t n, std::uint64_t seed);

}  // namespace ordo
