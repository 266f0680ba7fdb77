#include "obs/agg/latency_histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>

#include "core/thread_safety.hpp"
#include "obs/json.hpp"
#include "sparse/types.hpp"

namespace ordo::obs::agg {
namespace {

// Sub-bucket resolution: 2^3 sub-buckets per octave (the "3" in the index
// arithmetic below), giving every bucket a width of at most 1/8 of its
// lower bound.
constexpr int kSubBucketBits = 3;
constexpr int kSubBuckets = 1 << kSubBucketBits;

struct Registry {
  Mutex mutex;
  // Pointer values, never the histograms themselves: references returned by
  // latency() must survive map rehashing and process teardown (the atexit
  // metrics dump samples them). Deliberately leaked, like obs::counter's.
  std::map<std::string, LatencyHistogram*> entries ORDO_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: outlives atexit handlers
  return *r;
}

const double kQuantiles[] = {0.50, 0.90, 0.99, 0.999};
const char* const kQuantileKeys[] = {"p50", "p90", "p99", "p999"};

}  // namespace

int latency_bucket_index(std::int64_t ns) {
  if (ns < 0) ns = 0;
  if (ns < kSubBuckets) return static_cast<int>(ns);
  const int octave =
      std::bit_width(static_cast<std::uint64_t>(ns)) - 1;  // floor(log2 ns)
  const int sub = static_cast<int>((ns >> (octave - kSubBucketBits)) &
                                   (kSubBuckets - 1));
  const int index = kSubBuckets + (octave - kSubBucketBits) * kSubBuckets + sub;
  return std::min(index, kLatencyBuckets - 1);
}

std::int64_t latency_bucket_lower_ns(int index) {
  require(index >= 0 && index < kLatencyBuckets,
          "latency_bucket_lower_ns: index out of range");
  if (index < kSubBuckets) return index;
  const int octave = kSubBucketBits + (index - kSubBuckets) / kSubBuckets;
  const int sub = (index - kSubBuckets) % kSubBuckets;
  return static_cast<std::int64_t>(kSubBuckets + sub)
         << (octave - kSubBucketBits);
}

std::int64_t LatencySnapshot::percentile_ns(double q) const {
  if (count <= 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based): the smallest bucket whose cumulative
  // count reaches it. ceil keeps p100 at the last occupied bucket and p0 at
  // the first.
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::int64_t cumulative = 0;
  for (int i = 0; i < kLatencyBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return latency_bucket_lower_ns(i);
  }
  return latency_bucket_lower_ns(kLatencyBuckets - 1);
}

void LatencyHistogram::record_ns(std::int64_t ns) {
  const int index = latency_bucket_index(ns);
  // Relaxed: independent tallies sampled for reports; no reader infers
  // ordering between a bucket and other memory (class comment in the
  // header). A concurrent snapshot may see the bucket bumped before
  // count/sum or vice versa — per-field coherence, like every obs counter.
  buckets_[static_cast<std::size_t>(index)].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(std::max<std::int64_t>(0, ns), std::memory_order_relaxed);
}

LatencySnapshot LatencyHistogram::snapshot() const {
  LatencySnapshot s;
  // Relaxed: see record_ns — a snapshot is per-field coherent, not a cut.
  for (int i = 0; i < kLatencyBuckets; ++i) {
    s.buckets[i] = buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum_ns = sum_ns_.load(std::memory_order_relaxed);
  return s;
}

LatencyHistogram& latency(const std::string& name) {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  auto it = r.entries.find(name);
  if (it == r.entries.end()) {
    it = r.entries.emplace(name, new LatencyHistogram).first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, LatencySnapshot>> sample_latency() {
  std::vector<std::pair<std::string, LatencySnapshot>> samples;
  Registry& r = registry();
  MutexLock lock(r.mutex);
  samples.reserve(r.entries.size());
  for (const auto& [name, histogram] : r.entries) {
    samples.emplace_back(name, histogram->snapshot());
  }
  return samples;  // std::map iteration order is already sorted
}

void append_latency_snapshot_json(std::string& out,
                                  const LatencySnapshot& snapshot,
                                  bool include_buckets) {
  out += "{\"count\":";
  out += std::to_string(snapshot.count);
  out += ",\"sum_ns\":";
  out += std::to_string(snapshot.sum_ns);
  out += ",\"mean_seconds\":";
  append_json_double(out, snapshot.mean_seconds());
  for (std::size_t i = 0; i < std::size(kQuantiles); ++i) {
    out += ",\"";
    out += kQuantileKeys[i];
    out += "\":";
    append_json_double(out, snapshot.percentile_seconds(kQuantiles[i]));
  }
  if (include_buckets) {
    // Sparse pairs: the bucket array is mostly zeros for any real
    // distribution, and the heartbeat carries this every interval.
    out += ",\"buckets\":[";
    bool first = true;
    for (int i = 0; i < kLatencyBuckets; ++i) {
      if (snapshot.buckets[i] == 0) continue;
      if (!first) out += ',';
      first = false;
      out += '[';
      out += std::to_string(i);
      out += ',';
      out += std::to_string(snapshot.buckets[i]);
      out += ']';
    }
    out += ']';
  }
  out += '}';
}

void append_latency_section(std::string& out, bool include_buckets) {
  out += '{';
  bool first = true;
  for (const auto& [name, snapshot] : sample_latency()) {
    if (snapshot.empty()) continue;  // absent, never zero
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_latency_snapshot_json(out, snapshot, include_buckets);
  }
  out += '}';
}

}  // namespace ordo::obs::agg
