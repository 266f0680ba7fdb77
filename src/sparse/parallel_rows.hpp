// Row loops of the CSR builders on idle cores (pipeline::parallel_for).
//
// Each output row's slot is known before it is written, so chunks of rows
// write disjoint parts of the output and the bytes do not depend on how
// many cores ran them (DESIGN §21).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "pipeline/fork_join.hpp"
#include "sparse/types.hpp"

namespace ordo {

/// Offsets of a CSR array whose row i holds length(i) entries: out[0] = 0
/// and out[i + 1] = out[i] + length(i). A two-pass scan over blocks of
/// pipeline::kMinParallelRows rows: running sums within each block, then
/// each block's offset added, blocks on idle cores. The first pass writes
/// every slot, so none is zeroed first.
template <class Length>
CsrArray<offset_t> parallel_row_offsets(std::size_t rows,
                                        const Length& length) {
  constexpr std::size_t kBlock = pipeline::kMinParallelRows;
  const std::size_t blocks = (rows + kBlock - 1) / kBlock;
  CsrArray<offset_t> out(rows + 1);
  out[0] = 0;
  pipeline::parallel_for(blocks, 1, [&](std::size_t first, std::size_t last) {
    for (std::size_t b = first; b < last; ++b) {
      offset_t sum = 0;
      const std::size_t end = std::min(rows, (b + 1) * kBlock);
      for (std::size_t i = b * kBlock; i < end; ++i) {
        sum += length(i);
        out[i + 1] = sum;
      }
    }
  });
  // Block b starts where block b - 1 ends: out[b · kBlock] holds block
  // b - 1's own total until the second pass.
  std::vector<offset_t> base(blocks, 0);
  for (std::size_t b = 1; b < blocks; ++b) {
    base[b] = base[b - 1] + out[b * kBlock];
  }
  pipeline::parallel_for(blocks, 1, [&](std::size_t first, std::size_t last) {
    for (std::size_t b = std::max<std::size_t>(first, 1); b < last; ++b) {
      const std::size_t end = std::min(rows, (b + 1) * kBlock);
      for (std::size_t i = b * kBlock; i < end; ++i) out[i + 1] += base[b];
    }
  });
  return out;
}

/// Writes T{} to the first slot of each 4 KiB page of out[first, last), in
/// address order, so that those pages are faulted in one sweep. A row loop
/// that fills two unwritten CsrArrays in lockstep calls it on both before
/// its rows: faulted in lockstep, the two arrays took turns at the page
/// allocator and their physical pages interleaved, and a single-threaded
/// SpMV over the result later ran 5–8% slower (DESIGN §23).
template <class T>
void touch_pages_in_order(CsrArray<T>& out, std::size_t first,
                          std::size_t last) {
  constexpr std::size_t kSlotsPerPage = 4096 / sizeof(T);
  for (std::size_t k = first; k < last; k += kSlotsPerPage) out[k] = T{};
}

/// Runs body(first_row, last_row) over contiguous row ranges that cover
/// [0, row_ptr.size() - 1) and split row_ptr's nonzeros evenly, on idle
/// cores once there are pipeline::kMinParallelNonzeros per chunk. A range
/// holds the rows whose first nonzero falls in its share of the nonzeros
/// (the last range also any empty rows at the end).
template <class Body>
void parallel_for_row_ranges(std::span<const offset_t> row_ptr,
                             const Body& body) {
  const std::size_t rows = row_ptr.size() - 1;
  const auto nnz = static_cast<std::size_t>(row_ptr.back());
  if (nnz == 0) {
    body(std::size_t{0}, rows);
    return;
  }
  const auto row_at = [&](std::size_t k) {
    if (k == nnz) return rows;
    return static_cast<std::size_t>(
        std::lower_bound(row_ptr.begin(), row_ptr.end(),
                         static_cast<offset_t>(k)) -
        row_ptr.begin());
  };
  pipeline::parallel_for(nnz, pipeline::kMinParallelNonzeros,
                         [&](std::size_t first, std::size_t last) {
                           body(row_at(first), row_at(last));
                         });
}

}  // namespace ordo
