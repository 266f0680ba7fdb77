// Process-wide metrics registry (the counters/gauges/histograms half of
// ordo::obs).
//
// Three instrument kinds, all addressed by hierarchical dotted names:
//  * Counter   — monotonically increasing int64 (model evaluations, FM
//                passes, coarsening levels);
//  * Gauge     — last-written double (observed imbalance of the most recent
//                kernel launch);
//  * Histogram — log-linear distribution of recorded doubles with exact
//                count/sum/min/max and p50/p90/p99/p999 (reordering and
//                phase wall times, per-thread nnz, imbalance ratios, hw
//                counter totals).
//
// Instruments live for the whole process once created; lookups take the
// registry mutex, so hot sites should cache the returned reference (phase
// granularity makes the lookup cost irrelevant in practice). Every record
// is a handful of lock-free relaxed atomics.
//
// Dump: one machine-readable JSON document (what the benches write to
// ordo_metrics.json); the live status snapshot carries the same histogram
// entries.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace ordo::obs {

class Counter {
 public:
  // Relaxed throughout: counters are monotone tallies sampled for reports;
  // no reader infers ordering between a counter and other memory.
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Gauge {
 public:
  // Relaxed: a gauge is a last-writer-wins sample; see Counter above.
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram buckets (DESIGN.md §15). Bucket 0 holds zero, negatives and
/// everything below 2^kHistogramMinExponent; each octave [2^e, 2^(e+1))
/// above it, for e in [kHistogramMinExponent, kHistogramMaxExponent), is
/// split into 8 equal sub-buckets (the exponent plus the top 3 mantissa
/// bits of the IEEE-754 double), so a bucket is at most 1/8 of its lower
/// bound wide. The range spans sub-nanosecond times to hw counter totals;
/// values from 2^kHistogramMaxExponent up clamp into the last bucket.
inline constexpr int kHistogramMinExponent = -40;
inline constexpr int kHistogramMaxExponent = 64;
inline constexpr int kHistogramBuckets =
    1 + 8 * (kHistogramMaxExponent - kHistogramMinExponent);

/// Bucket index of a recorded value.
int histogram_bucket_index(double value);

/// Inclusive lower bound of bucket `index` (0 for bucket 0).
double histogram_bucket_lower(int index);

class Histogram {
 public:
  /// A point-in-time copy: count, sum, min and max are exact; quantiles
  /// come from the buckets.
  struct Snapshot {
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when empty
    double max = 0.0;  ///< 0 when empty
    /// Occupied buckets as (index, count), ascending by index.
    std::vector<std::pair<int, std::int64_t>> buckets;

    double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    /// Value at quantile `q` in [0, 1]: the lower bound of the bucket that
    /// holds the q-th sample, clamped to [min, max], so it never exceeds
    /// that sample and is below it by at most one bucket width. 0 when
    /// empty.
    double percentile(double q) const;
  };

  void record(double value);
  /// Not a cut: count and buckets agree, while min, max and sum cover
  /// every counted sample and perhaps a record still in flight.
  Snapshot snapshot() const;
  void reset();

 private:
  // The count is the buckets' sum, so it always agrees with them.
  std::array<std::atomic<std::int64_t>, kHistogramBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Finds or creates the named instrument. A name is bound to one kind for
/// the process lifetime; re-requesting it as another kind throws.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

/// True when `name` exists as any instrument kind.
bool has_metric(const std::string& name);

/// All registered names, sorted.
std::vector<std::string> metric_names();

/// Zeroes every instrument (counters to 0, gauges to 0, histograms empty)
/// without invalidating references. For tests and repeated harness runs.
void reset_metrics();

/// One instrument's value as sample_metrics() read it.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  std::int64_t counter_value = 0;
  double gauge_value = 0.0;
  Histogram::Snapshot histogram;  ///< kHistogram only
};

/// Reads every registered instrument, sorted by name. Each instrument is
/// sampled atomically but the set is not a global cut — a counter bumped
/// between two samples shows its new value while an earlier-sampled one
/// shows its old. The live-status snapshot path is the consumer.
std::vector<MetricSample> sample_metrics();

/// Appends one histogram entry: {"count","sum","min","max","mean","p50",
/// "p90","p99","p999","buckets":[[index,count],...]}. The sparse buckets
/// let a reader recompute any quantile (histogram_bucket_lower gives each
/// index's bound). Emitters skip empty histograms: absent, never zero.
void append_histogram_json(std::string& out, const Histogram::Snapshot& s);

/// Layout version of the metrics/trace JSON documents; bumped whenever a
/// field changes meaning so downstream consumers can detect drift.
/// v2: histogram entries carry percentiles and buckets, and the separate
/// "latency" group is gone.
inline constexpr int kMetricsSchemaVersion = 2;

/// JSON document {"schema_version":2,"counters":{...},"gauges":{...},
/// "histograms":{...}}.
void write_metrics_json(std::ostream& out);
void write_metrics_json_file(const std::string& path);

}  // namespace ordo::obs

// Compile-out-able recording macros for instrumentation sites inside the
// library. Each caches the instrument lookup after the first hit at that
// site (the name must be constant at the site for the cache to be valid).
#if defined(ORDO_OBS_ENABLED)
#define ORDO_COUNTER_ADD(name, delta)                    \
  do {                                                   \
    static ::ordo::obs::Counter& ordo_obs_counter_ =     \
        ::ordo::obs::counter(name);                      \
    ordo_obs_counter_.add(delta);                        \
  } while (0)
#define ORDO_GAUGE_SET(name, value) ::ordo::obs::gauge(name).set(value)
#define ORDO_HISTOGRAM_RECORD(name, value) \
  ::ordo::obs::histogram(name).record(value)
#else
#define ORDO_COUNTER_ADD(name, delta) ((void)0)
#define ORDO_GAUGE_SET(name, value) ((void)0)
#define ORDO_HISTOGRAM_RECORD(name, value) ((void)0)
#endif
