// Tests for ordo::obs: span nesting and the trace buffer, thread safety of
// the metrics registry, histogram buckets and percentiles, the Phase
// object, JSON export well-formedness, the logging sink and
// environment-variable configuration. The TsanStressTest cases run again
// under the sanitizer CI job (ctest -R '^TsanStress').
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "sparse/types.hpp"

namespace ordo::obs {
namespace {

// Minimal JSON well-formedness check: balanced braces/brackets outside
// strings, nothing after the top-level value. Enough to catch the classic
// dump bugs (trailing commas are caught by the balance+structure of our
// fixed-shape documents, unescaped quotes by the string scanner).
bool json_balanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  bool seen_value = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); seen_value = true; break;
      case '[': stack.push_back(']'); seen_value = true; break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty() && seen_value;
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_tracing_enabled(false);
    clear_trace();
    reset_metrics();
    set_log_level(LogLevel::kQuiet);
  }
  void TearDown() override {
    set_tracing_enabled(false);
    clear_trace();
    set_log_level(LogLevel::kQuiet);
    set_profiling_enabled(false);
  }
};

TEST_F(ObsTest, StopwatchMeasuresElapsedTime) {
  Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GT(watch.seconds(), 0.0);
  EXPECT_GE(watch.micros(), 0);
}

TEST_F(ObsTest, MedianOfRepsRunsWarmupPlusReps) {
  int calls = 0;
  const double median = median_seconds_of_reps(5, [&] { ++calls; });
  EXPECT_EQ(calls, 6);  // 1 warm-up + 5 measured
  EXPECT_GE(median, 0.0);
}

TEST_F(ObsTest, SpansRecordNestingDepthAndContainment) {
  set_tracing_enabled(true);
  {
    Span outer("outer");
    {
      Span inner("outer/inner");
    }
  }
  const std::vector<SpanEvent> events = collect_trace();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: outer opens first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].name, "outer/inner");
  EXPECT_EQ(events[1].depth, 1);
  // The child lies within the parent.
  EXPECT_GE(events[1].start_us, events[0].start_us);
  EXPECT_LE(events[1].start_us + events[1].duration_us,
            events[0].start_us + events[0].duration_us);
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  {
    Span span("never");
    ORDO_SCOPE("never/macro");
  }
  EXPECT_TRUE(collect_trace().empty());
}

TEST_F(ObsTest, SpansFromManyThreadsAllCollected) {
  set_tracing_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span("worker/span");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::vector<SpanEvent> events = collect_trace();
  EXPECT_GE(events.size(), static_cast<std::size_t>(kThreads * kSpansPerThread));
}

TEST_F(ObsTest, ChromeTraceExportIsWellFormedJson) {
  set_tracing_enabled(true);
  {
    Span outer("study/run");
    Span inner("reorder/RCM \"quoted\"\n");
  }
  std::ostringstream out;
  write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("study/run"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST_F(ObsTest, CountersAreThreadSafe) {
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  Counter& c = counter("test.concurrent_counter");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kAdds);
}

TEST_F(ObsTest, HistogramsAreThreadSafeAndSummarize) {
  constexpr int kThreads = 4;
  constexpr int kRecords = 5000;
  Histogram& h = histogram("test.concurrent_histogram");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kRecords; ++i) {
        h.record(static_cast<double>(t + 1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::int64_t>(kThreads) * kRecords);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, static_cast<double>(kThreads));
  EXPECT_DOUBLE_EQ(s.sum, kRecords * (1.0 + 2.0 + 3.0 + 4.0));
}

TEST_F(ObsTest, RegistryLookupFromManyThreadsYieldsOneInstrument) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(kThreads, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&seen, t] { seen[static_cast<std::size_t>(t)] =
                         &counter("test.registry_race"); });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
  }
}

TEST_F(ObsTest, MetricKindsAreExclusivePerName) {
  counter("test.kind_collision");
  EXPECT_THROW(histogram("test.kind_collision"), invalid_argument_error);
  EXPECT_THROW(gauge("test.kind_collision"), invalid_argument_error);
}

TEST_F(ObsTest, MetricsJsonRoundTripsValuesAndNames) {
  counter("test.json_counter").add(42);
  gauge("test.json_gauge").set(2.5);
  histogram("test.json_histogram").record(3.0);
  histogram("test.json_histogram").record(5.0);

  std::ostringstream out;
  write_metrics_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"test.json_counter\":42"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_histogram\":{\"count\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"mean\":4"), std::string::npos);

  EXPECT_TRUE(has_metric("test.json_counter"));
  const std::vector<std::string> names = metric_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "test.json_histogram"),
            names.end());
}

TEST_F(ObsTest, ResetZeroesWithoutInvalidatingReferences) {
  Counter& c = counter("test.reset_counter");
  c.add(7);
  Histogram& h = histogram("test.reset_histogram");
  h.record(1.0);
  // A phase's seconds land in the same registry, so reset reaches them too.
  Phase(Phase::Parts().histogram("test.reset_phase")).close();
  reset_metrics();
  EXPECT_EQ(c.value(), 0);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_TRUE(s.buckets.empty());
  EXPECT_EQ(s.percentile(0.99), 0.0);
  EXPECT_EQ(histogram("test.reset_phase").snapshot().count, 0);
  c.add(1);
  EXPECT_EQ(c.value(), 1);
  h.record(2.0);
  EXPECT_EQ(h.snapshot().min, 2.0);  // min/max restart with the next sample
}

TEST_F(ObsTest, PhaseOpensItsSpanAndRecordsItsSecondsOnce) {
  set_tracing_enabled(true);
  double seconds = 0.0;
  {
    Phase phase(
        Phase::Parts().span("test/phase").histogram("test.phase_seconds"));
    Span inner("test/phase/inner");
    seconds = phase.close();
    EXPECT_EQ(phase.close(), seconds);  // idempotent
  }
  // close() ends the measurement, not the span: the span still encloses
  // what its scope holds.
  const std::vector<SpanEvent> events = collect_trace();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "test/phase");
  EXPECT_EQ(events[1].name, "test/phase/inner");
  EXPECT_EQ(events[1].depth, events[0].depth + 1);
  // An unwinding phase records on destruction.
  EXPECT_THROW(
      {
        Phase phase(Phase::Parts().histogram("test.phase_seconds"));
        throw std::runtime_error("unwind");
      },
      std::runtime_error);
#if defined(ORDO_OBS_ENABLED)
  const Histogram::Snapshot s = histogram("test.phase_seconds").snapshot();
  EXPECT_EQ(s.count, 2);
  EXPECT_GE(s.max, seconds);
#endif
}

// --- histogram buckets and percentiles -------------------------------------

TEST(Histogram, BucketIndexRoundTripsThroughLowerBound) {
  // Every bucket's lower bound must index back into that same bucket, and
  // the bounds must strictly increase: together these pin the bucketing as
  // a partition of [0, inf).
  double previous = -1.0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    const double lower = histogram_bucket_lower(i);
    EXPECT_EQ(histogram_bucket_index(lower), i) << "lower=" << lower;
    EXPECT_GT(lower, previous) << "at index " << i;
    previous = lower;
  }
  EXPECT_EQ(histogram_bucket_lower(1),
            std::ldexp(1.0, kHistogramMinExponent));
  // Zero, negatives (a clock that went backwards), values below the range
  // and NaN share bucket 0; values past the range clamp into the last
  // bucket instead of indexing out of range.
  EXPECT_EQ(histogram_bucket_index(0.0), 0);
  EXPECT_EQ(histogram_bucket_index(-5.0), 0);
  EXPECT_EQ(histogram_bucket_index(std::ldexp(1.0, kHistogramMinExponent - 1)),
            0);
  EXPECT_EQ(histogram_bucket_index(std::nan("")), 0);
  EXPECT_EQ(histogram_bucket_index(std::ldexp(1.0, kHistogramMaxExponent)),
            kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket_index(std::numeric_limits<double>::infinity()),
            kHistogramBuckets - 1);
}

TEST(Histogram, BucketWidthStaysWithinOneEighthOfLowerBound) {
  // The relative-error contract: 8 sub-buckets per octave means a value is
  // under-reported by at most 12.5% when quoted as its bucket's lower
  // bound (the percentile convention).
  for (int i = 1; i + 1 < kHistogramBuckets; ++i) {
    const double lower = histogram_bucket_lower(i);
    const double next = histogram_bucket_lower(i + 1);
    EXPECT_LE((next - lower) * 8, lower) << "bucket " << i << " too wide";
  }
}

TEST(Histogram, PercentilesAreMonotoneAndBracketTheSamples) {
  Histogram h;
  // A long-tailed sample in seconds: 90 fast, 9 medium, 1 slow.
  double sum = 0.0;
  for (int i = 0; i < 90; ++i) {
    h.record(1e-6);
    sum += 1e-6;
  }
  for (int i = 0; i < 9; ++i) {
    h.record(1e-4);
    sum += 1e-4;
  }
  h.record(5e-2);
  sum += 5e-2;
  const Histogram::Snapshot s = h.snapshot();

  EXPECT_EQ(s.count, 100);
  EXPECT_EQ(s.sum, sum);
  EXPECT_EQ(s.min, 1e-6);
  EXPECT_EQ(s.max, 5e-2);
  const double p50 = s.percentile(0.50);
  const double p90 = s.percentile(0.90);
  const double p99 = s.percentile(0.99);
  const double p999 = s.percentile(0.999);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, p999);
  // Each quantile is its sample's bucket lower bound, clamped to
  // [min, max]: 1e-6 is no bucket bound, so p50 clamps up to the minimum.
  EXPECT_LT(histogram_bucket_lower(histogram_bucket_index(1e-6)), 1e-6);
  EXPECT_EQ(p50, 1e-6);
  EXPECT_EQ(p99, histogram_bucket_lower(histogram_bucket_index(1e-4)));
  EXPECT_EQ(p999, histogram_bucket_lower(histogram_bucket_index(5e-2)));
}

TEST(Histogram, NonTimeValuesKeepTheWidthBoundAndExactSummaries) {
  // Imbalance ratios, nonzero counts and hw counter totals share the one
  // histogram type with wall times.
  const double values[] = {0.0,     1.0,         1.37,          1.999,
                           999'983, 1'048'576.0, 1e12,          1.3e12 + 7,
                           2e-9,    4'096.0,     1'000'003.0,   1.5};
  Histogram h;
  double sum = 0.0;
  for (const double v : values) {
    h.record(v);
    sum += v;
    const int index = histogram_bucket_index(v);
    if (v == 0.0) {
      EXPECT_EQ(index, 0);
      continue;
    }
    const double lower = histogram_bucket_lower(index);
    const double next = histogram_bucket_lower(index + 1);
    EXPECT_LE(lower, v) << v;
    EXPECT_LT(v, next) << v;
    EXPECT_LE((next - lower) * 8, lower) << v;
  }
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::int64_t>(std::size(values)));
  EXPECT_EQ(s.sum, sum);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 1.3e12 + 7);
  std::int64_t in_buckets = 0;
  for (const auto& [index, n] : s.buckets) in_buckets += n;
  EXPECT_EQ(in_buckets, s.count);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_GE(s.percentile(q), s.min) << q;
    EXPECT_LE(s.percentile(q), s.max) << q;
  }
}

TEST(Histogram, EmptySnapshotIsAbsentNotZero) {
  const Histogram::Snapshot empty = Histogram().snapshot();
  EXPECT_EQ(empty.count, 0);
  EXPECT_EQ(empty.min, 0.0);
  EXPECT_EQ(empty.max, 0.0);
  EXPECT_EQ(empty.percentile(0.99), 0.0);

  // A named-but-never-recorded histogram must not appear in the dump:
  // monitors render what exists, never "p99 0s".
  histogram("test.hist.never_recorded");
  std::ostringstream out;
  write_metrics_json(out);
  const JsonValue doc = parse_json(out.str());
  EXPECT_EQ(doc.at("histograms").find("test.hist.never_recorded"), nullptr);
}

TEST(Histogram, JsonRoundTripPreservesBuckets) {
  Histogram& h = histogram("test.hist.round_trip");
  h.record(42e-9);
  h.record(42e-9);
  h.record(0.123456789);
  const Histogram::Snapshot original = h.snapshot();

  // The metrics document carries every summary field exactly and the sparse
  // [index, count] pairs that rebuild the buckets.
  std::ostringstream out;
  write_metrics_json(out);
  const JsonValue doc = parse_json(out.str());
  EXPECT_EQ(doc.at("schema_version").as_int(), kMetricsSchemaVersion);
  const JsonValue& entry = doc.at("histograms").at("test.hist.round_trip");
  EXPECT_EQ(entry.at("count").as_int(), original.count);
  EXPECT_EQ(entry.at("sum").as_double(), original.sum);
  EXPECT_EQ(entry.at("min").as_double(), original.min);
  EXPECT_EQ(entry.at("max").as_double(), original.max);
  EXPECT_EQ(entry.at("mean").as_double(), original.mean());
  EXPECT_EQ(entry.at("p50").as_double(), original.percentile(0.5));
  EXPECT_EQ(entry.at("p999").as_double(), original.percentile(0.999));
  std::vector<std::pair<int, std::int64_t>> parsed;
  for (const JsonValue& pair : entry.at("buckets").items) {
    ASSERT_EQ(pair.items.size(), 2u);
    parsed.emplace_back(static_cast<int>(pair.items[0].as_int()),
                        pair.items[1].as_int());
  }
  EXPECT_EQ(parsed, original.buckets);
}

// --- concurrency stress (re-run under TSan by the sanitizer CI job) --------

TEST(TsanStressTest, HistogramConcurrentRecordAndSnapshot) {
  Histogram h;
  constexpr int kRecorders = 4;
  constexpr int kSnapshotters = 2;
  constexpr int kRecordsEach = 20'000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  threads.reserve(kRecorders + kSnapshotters);
  for (int t = 0; t < kRecorders; ++t) {
    threads.emplace_back([&h, t] {
      // Whole numbers, so the sum is exact in any order.
      for (int i = 0; i < kRecordsEach; ++i) {
        h.record(static_cast<double>(t * kRecordsEach + i));
      }
    });
  }
  // Concurrent snapshots race the recorders on purpose: the histogram
  // promises per-field coherence, not a consistent cut, so the only
  // invariant mid-flight is "counts never exceed the final total".
  for (int t = 0; t < kSnapshotters; ++t) {
    threads.emplace_back([&h, &stop] {
      // Relaxed: a stop flag; the joins below order everything else.
      while (!stop.load(std::memory_order_relaxed)) {
        const Histogram::Snapshot s = h.snapshot();
        if (s.count > kRecorders * kRecordsEach) std::abort();
        std::this_thread::yield();
      }
    });
  }
  for (int t = 0; t < kRecorders; ++t) {
    threads[static_cast<std::size_t>(t)].join();
  }
  // Relaxed: see the snapshot loop.
  stop.store(true, std::memory_order_relaxed);
  for (int t = kRecorders; t < kRecorders + kSnapshotters; ++t) {
    threads[static_cast<std::size_t>(t)].join();
  }

  constexpr std::int64_t kTotal = kRecorders * kRecordsEach;
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, kTotal);
  EXPECT_EQ(s.sum, static_cast<double>(kTotal * (kTotal - 1) / 2));
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, static_cast<double>(kTotal - 1));
  std::int64_t in_buckets = 0;
  for (const auto& [index, n] : s.buckets) in_buckets += n;
  EXPECT_EQ(in_buckets, s.count);
}

TEST(TsanStressTest, LatencyRegistryConcurrentNamedAccess) {
  // Per-task and per-phase latencies are registry histograms looked up by
  // name from every worker while snapshots read the whole registry.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 2'000; ++i) {
        histogram("test.latency.stress." + std::to_string(t % 3))
            .record(i * 1e-6);
        if (i % 64 == 0) (void)sample_metrics();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::int64_t total = 0;
  for (const MetricSample& sample : sample_metrics()) {
    if (sample.name.rfind("test.latency.stress.", 0) == 0) {
      total += sample.histogram.count;
    }
  }
  EXPECT_EQ(total, kThreads * 2'000);
}

TEST_F(ObsTest, LogLevelParsingAndGating) {
  EXPECT_EQ(parse_log_level("quiet"), LogLevel::kQuiet);
  EXPECT_EQ(parse_log_level("Progress"), LogLevel::kProgress);
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("1"), LogLevel::kProgress);
  EXPECT_THROW(parse_log_level("loud"), invalid_argument_error);

  set_log_level(LogLevel::kProgress);
  EXPECT_TRUE(log_enabled(LogLevel::kProgress));
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  set_log_level(LogLevel::kQuiet);
  EXPECT_FALSE(log_enabled(LogLevel::kProgress));
}

TEST_F(ObsTest, InitFromEnvConfiguresEverySink) {
  ::setenv("ORDO_TRACE", "/tmp/ordo_obs_test_trace.json", 1);
  ::setenv("ORDO_LOG", "debug", 1);
  ::setenv("ORDO_METRICS", "/tmp/ordo_obs_test_metrics.json", 1);
  ::setenv("ORDO_PROFILE", "1", 1);
  init_from_env();
  EXPECT_TRUE(tracing_enabled());
  EXPECT_EQ(trace_output_path(), "/tmp/ordo_obs_test_trace.json");
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  EXPECT_EQ(metrics_output_path(), "/tmp/ordo_obs_test_metrics.json");
  EXPECT_TRUE(profiling_enabled());

  ::unsetenv("ORDO_TRACE");
  ::unsetenv("ORDO_LOG");
  ::unsetenv("ORDO_METRICS");
  ::unsetenv("ORDO_PROFILE");
  set_trace_output_path("");
  set_metrics_output_path("");
}

TEST_F(ObsTest, FinalizeWritesConfiguredFiles) {
  const std::string trace_path = ::testing::TempDir() + "/obs_trace.json";
  const std::string metrics_path = ::testing::TempDir() + "/obs_metrics.json";
  set_tracing_enabled(true);
  { Span span("finalize/span"); }
  counter("test.finalize_counter").add(3);
  set_trace_output_path(trace_path);
  set_metrics_output_path(metrics_path);
  finalize();
  set_trace_output_path("");
  set_metrics_output_path("");

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  const std::string trace = slurp(trace_path);
  const std::string metrics = slurp(metrics_path);
  EXPECT_TRUE(json_balanced(trace)) << trace;
  EXPECT_NE(trace.find("finalize/span"), std::string::npos);
  EXPECT_TRUE(json_balanced(metrics)) << metrics;
  EXPECT_NE(metrics.find("\"test.finalize_counter\":3"), std::string::npos);
}

}  // namespace
}  // namespace ordo::obs
