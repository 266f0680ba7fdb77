#include "sparse/csr.hpp"

#include <algorithm>
#include <numeric>

#include "check/invariants.hpp"

namespace ordo {
namespace {

// Shared assembly path: counting sort by row, in-row sort by column,
// duplicate summation.
CsrMatrix assemble(index_t num_rows, index_t num_cols,
                   std::vector<Triplet> entries) {
  CsrArray<offset_t> row_ptr(static_cast<std::size_t>(num_rows) + 1, 0);
  for (const Triplet& t : entries) row_ptr[static_cast<std::size_t>(t.row) + 1]++;
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());

  // Scatter triplets into row buckets; the scatter writes every slot.
  std::vector<offset_t> next(row_ptr.begin(), row_ptr.end() - 1);
  CsrArray<index_t> col_idx(entries.size());
  CsrArray<value_t> values(entries.size());
  for (const Triplet& t : entries) {
    const offset_t k = next[static_cast<std::size_t>(t.row)]++;
    col_idx[static_cast<std::size_t>(k)] = t.col;
    values[static_cast<std::size_t>(k)] = t.value;
  }

  // Sort each row by column and sum duplicates, compacting in place.
  CsrArray<offset_t> out_ptr(static_cast<std::size_t>(num_rows) + 1, 0);
  offset_t out = 0;
  std::vector<std::pair<index_t, value_t>> row;
  for (index_t i = 0; i < num_rows; ++i) {
    row.clear();
    for (offset_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      row.emplace_back(col_idx[static_cast<std::size_t>(k)],
                       values[static_cast<std::size_t>(k)]);
    }
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (k > 0 && row[k].first == row[k - 1].first) {
        values[static_cast<std::size_t>(out - 1)] += row[k].second;
      } else {
        col_idx[static_cast<std::size_t>(out)] = row[k].first;
        values[static_cast<std::size_t>(out)] = row[k].second;
        ++out;
      }
    }
    out_ptr[static_cast<std::size_t>(i) + 1] = out;
  }
  col_idx.resize(static_cast<std::size_t>(out));
  values.resize(static_cast<std::size_t>(out));
  return CsrMatrix(num_rows, num_cols, std::move(out_ptr), std::move(col_idx),
                   std::move(values));
}

}  // namespace

CsrMatrix::CsrMatrix()
    : arrays_(std::make_shared<const Arrays>()),
      row_ptr_(arrays_->row_ptr),
      col_idx_(arrays_->col_idx),
      values_(arrays_->values) {}

CsrMatrix::CsrMatrix(index_t num_rows, index_t num_cols,
                     CsrArray<offset_t> row_ptr, CsrArray<index_t> col_idx,
                     CsrArray<value_t> values)
    : num_rows_(num_rows), num_cols_(num_cols) {
  auto arrays = std::make_shared<Arrays>();
  arrays->row_ptr = std::move(row_ptr);
  arrays->col_idx = std::move(col_idx);
  arrays->values = std::move(values);
  arrays_ = std::move(arrays);
  row_ptr_ = arrays_->row_ptr;
  col_idx_ = arrays_->col_idx;
  values_ = arrays_->values;
  validate();
}

void CsrMatrix::validate() const {
  // Routed through ordo::check so a malformed construction is counted in
  // the check.violations.csr metric and throws the typed InvariantViolation
  // (still an invalid_argument_error to callers, as before).
  check::validate_csr_raw(num_rows_, num_cols_, row_ptr_, col_idx_,
                          values_.size(), "CsrMatrix");
}

bool operator==(const CsrMatrix& a, const CsrMatrix& b) {
  // Exact double equality is the contract here — the study's byte-identity
  // guarantees rest on bit-equal values.
  return a.num_rows_ == b.num_rows_ && a.num_cols_ == b.num_cols_ &&
         std::equal(a.row_ptr_.begin(), a.row_ptr_.end(),
                    b.row_ptr_.begin(), b.row_ptr_.end()) &&
         std::equal(a.col_idx_.begin(), a.col_idx_.end(),
                    b.col_idx_.begin(), b.col_idx_.end()) &&
         std::equal(a.values_.begin(), a.values_.end(), b.values_.begin(),
                    b.values_.end());  // ordo-lint: allow(float-eq)
}

CsrMatrix CsrMatrix::from_coo(const CooMatrix& coo) {
  return assemble(coo.num_rows(), coo.num_cols(), coo.entries());
}

CsrMatrix CsrMatrix::from_coo_symmetric_expand(const CooMatrix& coo) {
  require(coo.num_rows() == coo.num_cols(),
          "from_coo_symmetric_expand: matrix must be square");
  std::vector<Triplet> entries = coo.entries();
  const std::size_t original = entries.size();
  entries.reserve(2 * original);
  for (std::size_t k = 0; k < original; ++k) {
    if (entries[k].row != entries[k].col) {
      entries.push_back(
          Triplet{entries[k].col, entries[k].row, entries[k].value});
    }
  }
  return assemble(coo.num_rows(), coo.num_cols(), std::move(entries));
}

std::int64_t CsrMatrix::storage_bytes() const {
  return static_cast<std::int64_t>(row_ptr_.size() * sizeof(offset_t)) +
         static_cast<std::int64_t>(col_idx_.size() * sizeof(index_t)) +
         static_cast<std::int64_t>(values_.size() * sizeof(value_t));
}

std::uint64_t CsrMatrix::row_structure_hash() const {
  // Relaxed: see Arrays::row_hash — the hash is pure over immutable data, so
  // the only race is two threads storing the same value.
  std::uint64_t hash = arrays_->row_hash.load(std::memory_order_relaxed);
  if (hash != 0) return hash;
  constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
  hash = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const offset_t entry : row_ptr_) {
    const auto bits = static_cast<std::uint64_t>(entry);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffULL;
      hash *= kFnvPrime;
    }
  }
  if (hash == 0) hash = 1;  // 0 marks "not yet computed"
  arrays_->row_hash.store(hash, std::memory_order_relaxed);
  return hash;
}

}  // namespace ordo
