// Fundamental scalar and index types used throughout ordo.
//
// The study (and this reproduction) stores column offsets as 32-bit integers
// and nonzero values as IEEE double precision, matching Section 4.1 of the
// paper. Row-pointer arrays use 64-bit offsets so matrices with more than
// 2^31 nonzeros remain representable.
#pragma once

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ordo {

/// Row/column index type (32-bit, as in the paper's CSR representation).
using index_t = std::int32_t;

/// Nonzero-offset type for row pointers and nonzero counts.
using offset_t = std::int64_t;

/// Matrix value type.
using value_t = double;

/// std::allocator whose value-less construct default-initializes: a
/// `CsrArray<T>(n)` of a trivial T leaves its n slots unwritten, so a builder
/// that overwrites every slot pays no zeroing pass, and the pages are first
/// touched by whichever thread writes them. Every other construct (a fill
/// value, a copy, push_back) behaves as std::allocator's.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Storage of the CSR arrays of CsrMatrix and Graph. A sized constructor
/// or resize leaves new slots indeterminate; callers that read a slot before
/// writing it pass a fill value, e.g. `CsrArray<offset_t>(n + 1, 0)`.
template <class T>
using CsrArray = std::vector<T, DefaultInitAllocator<T>>;

/// Exception thrown when a matrix, permutation or argument fails validation.
class invalid_argument_error : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Throws invalid_argument_error with the given message when `cond` is false.
inline void require(bool cond, const std::string& message) {
  if (!cond) throw invalid_argument_error(message);
}

/// The same for a literal message: no std::string is built unless the check
/// fails, so per-element checks cost only the test.
inline void require(bool cond, const char* message) {
  if (!cond) throw invalid_argument_error(message);
}

/// Parses `text`, the value of the flag or environment variable `source`,
/// as a whole number in [min, max]: decimal digits with an optional leading
/// '-' and nothing else. Anything else throws invalid_argument_error
/// naming `source`, the range and `text`.
template <typename Int>
Int parse_whole_number(const std::string& text, const std::string& source,
                       Int min, Int max = std::numeric_limits<Int>::max()) {
  Int value = 0;
  const char* const end = text.data() + text.size();
  const auto [parsed_to, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || parsed_to != end || value < min || value > max) {
    throw invalid_argument_error(
        source + ": expected a whole number " +
        (max == std::numeric_limits<Int>::max()
             ? ">= " + std::to_string(min)
             : "in [" + std::to_string(min) + ", " + std::to_string(max) +
                   "]") +
        ", got '" + text + "'");
  }
  return value;
}

/// Parses `text`, the value of the flag or environment variable `source`,
/// as a finite real number >= min, in std::from_chars' general format
/// ("0.5", "2e-3") and nothing else. Anything else throws
/// invalid_argument_error naming `source`, the minimum and `text`.
inline double parse_real_number(const std::string& text,
                                const std::string& source, double min) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [parsed_to, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || parsed_to != end || !std::isfinite(value) ||
      value < min) {
    char shortest[32];
    const auto written =
        std::to_chars(shortest, shortest + sizeof(shortest), min).ptr;
    throw invalid_argument_error(source + ": expected a real number >= " +
                                 std::string(shortest, written) + ", got '" +
                                 text + "'");
  }
  return value;
}

/// Exception thrown when a long-running computation observes its cooperative
/// cancellation flag set (the pipeline scheduler's soft task deadlines; see
/// src/pipeline/cancel.hpp for who sets the flag).
class operation_cancelled_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Polls an optional cancellation flag. The flag is plain `std::atomic<bool>`
/// rather than a richer token so the compute layers (reorder, partition) can
/// honour cancellation without depending on the pipeline module. A null flag
/// means "not cancellable" and costs one branch.
inline void poll_cancelled(const std::atomic<bool>* flag, const char* where) {
  if (flag && flag->load(std::memory_order_relaxed)) {
    throw operation_cancelled_error(std::string(where) +
                                    ": cancelled (task deadline exceeded)");
  }
}

}  // namespace ordo
