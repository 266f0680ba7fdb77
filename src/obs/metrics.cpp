#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>

#include "core/thread_safety.hpp"
#include "obs/agg/latency_histogram.hpp"
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

void write_double(std::ostream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out << buf;
}

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

void Histogram::record(double value) {
  MutexLock lock(mutex_);
  if (state_.count == 0) {
    state_.min = value;
    state_.max = value;
  } else {
    state_.min = std::min(state_.min, value);
    state_.max = std::max(state_.max, value);
  }
  state_.sum += value;
  state_.count += 1;
}

Histogram::Snapshot Histogram::snapshot() const {
  MutexLock lock(mutex_);
  return state_;
}

void Histogram::reset() {
  MutexLock lock(mutex_);
  state_ = Snapshot{};
}

Counter& counter(const std::string& name) {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  Entry& entry = r.entries[name];
  if (!entry.counter) {
    require(!entry.gauge && !entry.histogram,
            "obs::counter: metric '" + name +
                "' already registered as another kind");
    entry.counter = std::make_unique<Counter>();
  }
  return *entry.counter;
}

Gauge& gauge(const std::string& name) {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  Entry& entry = r.entries[name];
  if (!entry.gauge) {
    require(!entry.counter && !entry.histogram,
            "obs::gauge: metric '" + name +
                "' already registered as another kind");
    entry.gauge = std::make_unique<Gauge>();
  }
  return *entry.gauge;
}

Histogram& histogram(const std::string& name) {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  Entry& entry = r.entries[name];
  if (!entry.histogram) {
    require(!entry.counter && !entry.gauge,
            "obs::histogram: metric '" + name +
                "' already registered as another kind");
    entry.histogram = std::make_unique<Histogram>();
  }
  return *entry.histogram;
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

void write_metrics_text(std::ostream& out) {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  for (const auto& [name, entry] : r.entries) {
    out << name << ' ';
    if (entry.counter) {
      out << "counter " << entry.counter->value();
    } else if (entry.gauge) {
      out << "gauge ";
      write_double(out, entry.gauge->value());
    } else if (entry.histogram) {
      const Histogram::Snapshot s = entry.histogram->snapshot();
      out << "histogram count " << s.count << " mean ";
      write_double(out, s.mean());
      out << " min ";
      write_double(out, s.min);
      out << " max ";
      write_double(out, s.max);
    }
    out << '\n';
  }
}

void write_metrics_json(std::ostream& out) {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  const auto dump_kind = [&](const char* kind, auto&& writer) {
    out << '"' << kind << "\":{";
    bool first = true;
    for (const auto& [name, entry] : r.entries) {
      if (!writer(name, entry, first)) continue;
      first = false;
    }
    out << '}';
  };
  out << "{\"schema_version\":" << kMetricsSchemaVersion << ',';
  dump_kind("counters", [&](const std::string& name, const Entry& entry,
                            bool first) {
    if (!entry.counter) return false;
    if (!first) out << ',';
    write_json_string(out, name);
    out << ':' << entry.counter->value();
    return true;
  });
  out << ',';
  dump_kind("gauges", [&](const std::string& name, const Entry& entry,
                          bool first) {
    if (!entry.gauge) return false;
    if (!first) out << ',';
    write_json_string(out, name);
    out << ':';
    write_double(out, entry.gauge->value());
    return true;
  });
  out << ',';
  dump_kind("histograms", [&](const std::string& name, const Entry& entry,
                              bool first) {
    if (!entry.histogram) return false;
    if (!first) out << ',';
    const Histogram::Snapshot s = entry.histogram->snapshot();
    write_json_string(out, name);
    out << ":{\"count\":" << s.count << ",\"sum\":";
    write_double(out, s.sum);
    out << ",\"min\":";
    write_double(out, s.min);
    out << ",\"max\":";
    write_double(out, s.max);
    out << ",\"mean\":";
    write_double(out, s.mean());
    out << '}';
    return true;
  });
  // Tail-latency histograms (obs/agg/latency_histogram.hpp), buckets
  // included so a reader can recompute any quantile. An additive
  // group: schema_version stays 1, consumers reading only the three
  // summary groups are unaffected. Lock order is registry mutex (held
  // here) then the latency registry's own mutex; the latency layer never
  // takes this registry's mutex, so the order cannot invert.
  {
    std::string latency;
    agg::append_latency_section(latency, /*include_buckets=*/true);
    out << ",\"latency\":" << latency;
  }
  out << "}\n";
}

void write_metrics_json_file(const std::string& path) {
  std::ofstream out(path);
  require(out.good(), "write_metrics_json_file: cannot open " + path);
  write_metrics_json(out);
}

}  // namespace ordo::obs
