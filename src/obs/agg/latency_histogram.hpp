// ordo::obs::agg — tail-latency histograms with percentiles.
//
// The histogram is the percentile substrate the ROADMAP's ordo-serve
// direction needs ("measure tail latency, not just throughput"): the mean
// the metrics registry's summary Histogram reports says nothing about the
// p99 a straggler matrix inflicts. Design (DESIGN.md §15):
//
//  * Fixed log-linear buckets over a nanosecond int64 domain: values below
//    2^3 get one bucket each; every power-of-two octave above is split into
//    8 sub-buckets, so any recorded value lands in a bucket whose width is
//    at most 12.5% of its lower bound. Quantiles read from bucket
//    boundaries therefore carry a bounded relative error, independent of
//    the distribution's shape.
//  * Lock-light: record() is a handful of relaxed atomic adds — no mutex,
//    no allocation — cheap enough for per-task and per-phase call sites
//    (never inner loops; the discipline of obs/trace.hpp applies).
//
// Recording macros (ORDO_LATENCY_RECORD / ORDO_LATENCY_SCOPE) compile out
// with ORDO_OBS=OFF like every other obs macro.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/stopwatch.hpp"

namespace ordo::obs::agg {

/// Bucket count: 8 unit buckets below 2^3 ns plus 8 sub-buckets for each
/// of the octaves [2^3, 2^48) — an upper bound near 78 hours, far past any
/// single task. Larger values clamp into the last bucket (their percentile
/// reads as its lower bound, a deliberate underestimate).
inline constexpr int kLatencyBuckets = 8 + 8 * 45;

/// Bucket index of a nanosecond value (negatives clamp to bucket 0).
int latency_bucket_index(std::int64_t ns);

/// Inclusive lower bound of bucket `index`, in nanoseconds.
std::int64_t latency_bucket_lower_ns(int index);

/// A point-in-time copy of one histogram: plain integers, safe to read and
/// serialize while recording continues.
struct LatencySnapshot {
  std::array<std::int64_t, kLatencyBuckets> buckets{};
  std::int64_t count = 0;
  std::int64_t sum_ns = 0;

  bool empty() const { return count == 0; }
  double mean_seconds() const {
    return count > 0 ? static_cast<double>(sum_ns) /
                           (1e9 * static_cast<double>(count))
                     : 0.0;
  }

  /// Value at quantile `q` in [0, 1], read from bucket lower bounds: the
  /// returned nanoseconds are the lower bound of the bucket holding the
  /// q-th sample, so quantiles never exceed any recorded sample by more
  /// than one bucket width. Returns 0 for an empty snapshot.
  std::int64_t percentile_ns(double q) const;
  double percentile_seconds(double q) const {
    return static_cast<double>(percentile_ns(q)) / 1e9;
  }
};

/// The recording side: an array of relaxed atomic bucket counters. One
/// instance per metric name, process-lifetime (see latency() below).
class LatencyHistogram {
 public:
  void record_ns(std::int64_t ns);
  void record_seconds(double seconds) {
    record_ns(static_cast<std::int64_t>(seconds * 1e9));
  }

  LatencySnapshot snapshot() const;

 private:
  // Relaxed throughout: each bucket is an independent tally; a snapshot
  // taken mid-record may miss the in-flight sample (it lands in the next
  // snapshot), which is the same per-field coherence every obs counter has.
  std::array<std::atomic<std::int64_t>, kLatencyBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_ns_{0};
};

/// Finds or creates the named latency histogram (process-lifetime, like
/// obs::counter). Hot sites cache the reference via ORDO_LATENCY_RECORD.
LatencyHistogram& latency(const std::string& name);

/// Every registered histogram's snapshot, sorted by name. Empty histograms
/// are included (callers apply the absent-not-zero rule when emitting).
std::vector<std::pair<std::string, LatencySnapshot>> sample_latency();

/// Appends one JSON object mapping each non-empty histogram name to
/// {"count","sum_seconds","mean_seconds","p50","p90","p99","p999"} plus,
/// when `include_buckets`, a sparse "buckets":[[index,count],...] array,
/// from which a reader can recompute any quantile. Emits "{}" when nothing
/// was recorded.
void append_latency_section(std::string& out, bool include_buckets);

/// The same emission for one snapshot: the object each histogram name maps
/// to.
void append_latency_snapshot_json(std::string& out,
                                  const LatencySnapshot& snapshot,
                                  bool include_buckets);

/// RAII recorder for ORDO_LATENCY_SCOPE: records the enclosing block's
/// wall time into `histogram` on destruction.
class LatencyScope {
 public:
  explicit LatencyScope(LatencyHistogram& histogram)
      : histogram_(histogram) {}
  ~LatencyScope() { histogram_.record_seconds(watch_.seconds()); }
  LatencyScope(const LatencyScope&) = delete;
  LatencyScope& operator=(const LatencyScope&) = delete;

 private:
  LatencyHistogram& histogram_;
  Stopwatch watch_;
};

}  // namespace ordo::obs::agg

// ORDO_LATENCY_RECORD("task", seconds) / ORDO_LATENCY_SCOPE("phase.x"):
// latency recording sites, compiled out entirely with ORDO_OBS=OFF. The
// name must be constant at the site (the instrument lookup is cached in a
// function-local static, exactly like ORDO_COUNTER_ADD).
#if defined(ORDO_OBS_ENABLED)
#define ORDO_AGG_CONCAT_IMPL(a, b) a##b
#define ORDO_AGG_CONCAT(a, b) ORDO_AGG_CONCAT_IMPL(a, b)
#define ORDO_LATENCY_RECORD(name, seconds)                          \
  do {                                                              \
    static ::ordo::obs::agg::LatencyHistogram& ordo_obs_latency_ =  \
        ::ordo::obs::agg::latency(name);                            \
    ordo_obs_latency_.record_seconds(seconds);                      \
  } while (0)
#define ORDO_LATENCY_SCOPE(name)                             \
  static ::ordo::obs::agg::LatencyHistogram&                 \
      ORDO_AGG_CONCAT(ordo_latency_hist_, __LINE__) =        \
          ::ordo::obs::agg::latency(name);                   \
  ::ordo::obs::agg::LatencyScope ORDO_AGG_CONCAT(            \
      ordo_latency_scope_, __LINE__)(                        \
      ORDO_AGG_CONCAT(ordo_latency_hist_, __LINE__))
#else
#define ORDO_LATENCY_RECORD(name, seconds) ((void)0)
#define ORDO_LATENCY_SCOPE(name) ((void)0)
#endif
