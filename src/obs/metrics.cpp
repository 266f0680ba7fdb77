#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>

#include "core/thread_safety.hpp"
#include "obs/json.hpp"
#include "sparse/types.hpp"

namespace ordo::obs {
namespace {

// One registry entry: exactly one instrument kind per name. unique_ptr keeps
// instrument addresses stable across map growth, so returned references
// never dangle.
struct Entry {
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

struct Registry {
  Mutex mutex;
  std::map<std::string, Entry> entries ORDO_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: instruments outlive statics
  return *r;
}

// A positive double's bits shifted right by 49 keep the 11 exponent bits
// and the top 3 mantissa bits: one key per log-linear bucket, in value
// order.
constexpr int kKeyShift = 49;
constexpr double kLowestBucketed = std::bit_cast<double>(
    static_cast<std::uint64_t>(1023 + kHistogramMinExponent) << 52);
constexpr std::uint64_t kLowestKey =
    std::bit_cast<std::uint64_t>(kLowestBucketed) >> kKeyShift;

const double kQuantiles[] = {0.50, 0.90, 0.99, 0.999};
const char* const kQuantileKeys[] = {"p50", "p90", "p99", "p999"};

template <typename Kind>
Kind& find_or_create(const std::string& name,
                     std::unique_ptr<Kind> Entry::*slot) {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  Entry& entry = r.entries[name];
  if (!(entry.*slot)) {
    require(!entry.counter && !entry.gauge && !entry.histogram,
            "obs: metric '" + name + "' already registered as another kind");
    entry.*slot = std::make_unique<Kind>();
  }
  return *(entry.*slot);
}

// Appends `"key":value` pairs of one group, skipping entries `append`
// declines (it returns false without writing).
template <typename Append>
void append_group(std::string& out, const char* key, const Registry& r,
                  Append&& append) ORDO_REQUIRES(r.mutex) {
  out += '"';
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [name, entry] : r.entries) {
    std::string value;
    if (!append(value, entry)) continue;
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    out += value;
  }
  out += '}';
}

}  // namespace

int histogram_bucket_index(double value) {
  if (!(value >= kLowestBucketed)) return 0;  // zero, negative, tiny, NaN
  const std::uint64_t key = std::bit_cast<std::uint64_t>(value) >> kKeyShift;
  return static_cast<int>(std::min<std::uint64_t>(
      key - kLowestKey + 1, kHistogramBuckets - 1));
}

double histogram_bucket_lower(int index) {
  require(index >= 0 && index < kHistogramBuckets,
          "histogram_bucket_lower: index out of range");
  if (index == 0) return 0.0;
  return std::bit_cast<double>(
      (kLowestKey + static_cast<std::uint64_t>(index - 1)) << kKeyShift);
}

double Histogram::Snapshot::percentile(double q) const {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based): the first bucket whose cumulative
  // count reaches it. ceil keeps p100 at the last occupied bucket.
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count))));
  std::int64_t cumulative = 0;
  int index = buckets.empty() ? 0 : buckets.back().first;
  for (const auto& [i, n] : buckets) {
    cumulative += n;
    if (cumulative >= rank) {
      index = i;
      break;
    }
  }
  return std::clamp(histogram_bucket_lower(index), min, max);
}

void Histogram::record(double value) {
  // Relaxed: min, max and sum publish nothing but their own values; the
  // bucket add below orders them for snapshots.
  double seen = min_.load(std::memory_order_relaxed);
  while (value < seen && !min_.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen && !max_.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  sum_.fetch_add(value, std::memory_order_relaxed);
  // Release, paired with snapshot()'s acquire: a snapshot that counts this
  // sample also sees it in min, max and sum, so min <= max whenever the
  // count is positive.
  buckets_[static_cast<std::size_t>(histogram_bucket_index(value))].fetch_add(
      1, std::memory_order_release);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  // Acquire: see record().
  for (int i = 0; i < kHistogramBuckets; ++i) {
    const std::int64_t n =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_acquire);
    if (n == 0) continue;
    s.buckets.emplace_back(i, n);
    s.count += n;
  }
  if (s.count > 0) {
    // Relaxed: ordered after the acquire loads above, so these cover every
    // counted sample (and perhaps a few in flight).
    s.sum = sum_.load(std::memory_order_relaxed);
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
  }
  return s;
}

void Histogram::reset() {
  // Relaxed: reset runs between measurements (tests, harness reruns); a
  // record racing it lands on either side, like any other snapshot.
  for (std::atomic<std::int64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

Counter& counter(const std::string& name) {
  return find_or_create(name, &Entry::counter);
}

Gauge& gauge(const std::string& name) {
  return find_or_create(name, &Entry::gauge);
}

Histogram& histogram(const std::string& name) {
  return find_or_create(name, &Entry::histogram);
}

bool has_metric(const std::string& name) {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  return r.entries.count(name) > 0;
}

std::vector<std::string> metric_names() {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  std::vector<std::string> names;
  names.reserve(r.entries.size());
  for (const auto& [name, entry] : r.entries) names.push_back(name);
  return names;
}

void reset_metrics() {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  for (auto& [name, entry] : r.entries) {
    if (entry.counter) entry.counter->add(-entry.counter->value());
    if (entry.gauge) entry.gauge->set(0.0);
    if (entry.histogram) entry.histogram->reset();
  }
}

std::vector<MetricSample> sample_metrics() {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  std::vector<MetricSample> samples;
  samples.reserve(r.entries.size());
  for (const auto& [name, entry] : r.entries) {
    MetricSample sample;
    sample.name = name;
    if (entry.counter) {
      sample.kind = MetricSample::Kind::kCounter;
      sample.counter_value = entry.counter->value();
    } else if (entry.gauge) {
      sample.kind = MetricSample::Kind::kGauge;
      sample.gauge_value = entry.gauge->value();
    } else if (entry.histogram) {
      sample.kind = MetricSample::Kind::kHistogram;
      sample.histogram = entry.histogram->snapshot();
    }
    samples.push_back(std::move(sample));
  }
  return samples;  // std::map iteration order is already sorted
}

void append_histogram_json(std::string& out, const Histogram::Snapshot& s) {
  out += "{\"count\":";
  out += std::to_string(s.count);
  for (const auto& [key, value] : {std::pair{"sum", s.sum},
                                   std::pair{"min", s.min},
                                   std::pair{"max", s.max},
                                   std::pair{"mean", s.mean()}}) {
    out += ",\"";
    out += key;
    out += "\":";
    append_json_double(out, value);
  }
  for (std::size_t i = 0; i < std::size(kQuantiles); ++i) {
    out += ",\"";
    out += kQuantileKeys[i];
    out += "\":";
    append_json_double(out, s.percentile(kQuantiles[i]));
  }
  out += ",\"buckets\":[";
  for (std::size_t i = 0; i < s.buckets.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    out += std::to_string(s.buckets[i].first);
    out += ',';
    out += std::to_string(s.buckets[i].second);
    out += ']';
  }
  out += "]}";
}

void write_metrics_json(std::ostream& out) {
  std::string json = "{\"schema_version\":";
  json += std::to_string(kMetricsSchemaVersion);
  json += ',';
  {
    Registry& r = registry();
    MutexLock lock(r.mutex);
    append_group(json, "counters", r, [](std::string& v, const Entry& e) {
      if (!e.counter) return false;
      v = std::to_string(e.counter->value());
      return true;
    });
    json += ',';
    append_group(json, "gauges", r, [](std::string& v, const Entry& e) {
      if (!e.gauge) return false;
      append_json_double(v, e.gauge->value());
      return true;
    });
    json += ',';
    append_group(json, "histograms", r, [](std::string& v, const Entry& e) {
      if (!e.histogram) return false;
      const Histogram::Snapshot s = e.histogram->snapshot();
      if (s.count == 0) return false;  // absent, never zero
      append_histogram_json(v, s);
      return true;
    });
  }
  json += "}\n";
  out << json;
}

void write_metrics_json_file(const std::string& path) {
  std::ofstream out(path);
  require(out.good(), "write_metrics_json_file: cannot open " + path);
  write_metrics_json(out);
}

}  // namespace ordo::obs
