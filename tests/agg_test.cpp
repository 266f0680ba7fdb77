// Tail-latency histogram suite (src/obs/agg/): bucket arithmetic,
// percentiles, and the JSON form the metrics and /stats documents carry.
// The TsanStressTest cases run again under the sanitizer CI job
// (ctest -R '^TsanStress').
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/agg/latency_histogram.hpp"
#include "obs/json.hpp"

namespace ordo {
namespace {

namespace agg = obs::agg;

// --- bucket arithmetic -----------------------------------------------------

TEST(LatencyHistogram, BucketIndexRoundTripsThroughLowerBound) {
  // Every bucket's lower bound must index back into that same bucket, and
  // the lower bounds must be strictly increasing — together these pin the
  // bucketing as a partition of [0, inf).
  std::int64_t previous = -1;
  for (int i = 0; i < agg::kLatencyBuckets; ++i) {
    const std::int64_t lower = agg::latency_bucket_lower_ns(i);
    EXPECT_EQ(agg::latency_bucket_index(lower), i) << "lower=" << lower;
    EXPECT_GT(lower, previous) << "at index " << i;
    previous = lower;
  }
  // Unit-resolution below 2^3 ns, exact at the sub-bucket boundaries above.
  EXPECT_EQ(agg::latency_bucket_index(0), 0);
  EXPECT_EQ(agg::latency_bucket_index(7), 7);
  EXPECT_EQ(agg::latency_bucket_lower_ns(0), 0);
  // Negative durations (clock went backwards) clamp to the first bucket;
  // absurdly large ones clamp to the last instead of indexing out of range.
  EXPECT_EQ(agg::latency_bucket_index(-5), 0);
  EXPECT_EQ(agg::latency_bucket_index(std::int64_t{1} << 62),
            agg::kLatencyBuckets - 1);
}

TEST(LatencyHistogram, BucketWidthStaysWithinOneEighthOfLowerBound) {
  // The relative-error contract: 8 sub-buckets per octave means a recorded
  // value is under-reported by at most 12.5% when quoted as its bucket's
  // lower bound (the percentile convention).
  for (int i = 8; i + 1 < agg::kLatencyBuckets; ++i) {
    const std::int64_t lower = agg::latency_bucket_lower_ns(i);
    const std::int64_t next = agg::latency_bucket_lower_ns(i + 1);
    EXPECT_LE((next - lower) * 8, lower) << "bucket " << i << " too wide";
  }
}

TEST(LatencyHistogram, PercentilesAreMonotoneAndBracketTheSamples) {
  agg::LatencyHistogram histogram;
  // A long-tailed sample: 90 fast, 9 medium, 1 slow.
  for (int i = 0; i < 90; ++i) histogram.record_ns(1'000);
  for (int i = 0; i < 9; ++i) histogram.record_ns(100'000);
  histogram.record_ns(50'000'000);
  const agg::LatencySnapshot snapshot = histogram.snapshot();

  EXPECT_EQ(snapshot.count, 100);
  EXPECT_EQ(snapshot.sum_ns, 90 * 1'000 + 9 * 100'000 + 50'000'000);
  const std::int64_t p50 = snapshot.percentile_ns(0.50);
  const std::int64_t p90 = snapshot.percentile_ns(0.90);
  const std::int64_t p99 = snapshot.percentile_ns(0.99);
  const std::int64_t p999 = snapshot.percentile_ns(0.999);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, p999);
  // Each quantile lands in the recorded value's bucket: lower bound at most
  // the value, within the 12.5% width contract below it.
  EXPECT_EQ(p50, agg::latency_bucket_lower_ns(agg::latency_bucket_index(1'000)));
  EXPECT_EQ(p99,
            agg::latency_bucket_lower_ns(agg::latency_bucket_index(100'000)));
  EXPECT_EQ(p999, agg::latency_bucket_lower_ns(
                      agg::latency_bucket_index(50'000'000)));
}

TEST(LatencyHistogram, EmptySnapshotIsAbsentNotZero) {
  const agg::LatencySnapshot empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.percentile_ns(0.99), 0);

  // A named-but-never-recorded histogram must not appear in the section:
  // monitors render what exists, never "p99 0s".
  agg::latency("test.agg.never_recorded");
  std::string section;
  agg::append_latency_section(section, /*include_buckets=*/false);
  const obs::JsonValue doc = obs::parse_json(section);
  EXPECT_EQ(doc.find("test.agg.never_recorded"), nullptr);
}

TEST(LatencyHistogram, JsonRoundTripPreservesBuckets) {
  agg::LatencyHistogram histogram;
  histogram.record_ns(42);
  histogram.record_ns(42);
  histogram.record_ns(123'456'789);
  const agg::LatencySnapshot original = histogram.snapshot();

  // The emitted sparse [index, count] pairs rebuild the bucket array.
  std::string json;
  agg::append_latency_snapshot_json(json, original, /*include_buckets=*/true);
  const obs::JsonValue doc = obs::parse_json(json);
  EXPECT_EQ(doc.at("count").as_int(), original.count);
  EXPECT_EQ(doc.at("sum_ns").as_int(), original.sum_ns);
  agg::LatencySnapshot parsed;
  for (const obs::JsonValue& pair : doc.at("buckets").items) {
    ASSERT_EQ(pair.items.size(), 2u);
    const std::int64_t index = pair.items[0].as_int();
    ASSERT_GE(index, 0);
    ASSERT_LT(index, agg::kLatencyBuckets);
    parsed.buckets[static_cast<std::size_t>(index)] = pair.items[1].as_int();
  }
  for (int i = 0; i < agg::kLatencyBuckets; ++i) {
    EXPECT_EQ(parsed.buckets[i], original.buckets[i]) << "bucket " << i;
  }

  // The percentiles-only form (BENCH reports) parses
  // too, just without bucket detail.
  std::string thin;
  agg::append_latency_snapshot_json(thin, original, /*include_buckets=*/false);
  const obs::JsonValue thin_doc = obs::parse_json(thin);
  EXPECT_EQ(thin_doc.find("buckets"), nullptr);
  EXPECT_EQ(thin_doc.at("count").as_int(), original.count);
}

// --- concurrency stress (re-run under TSan by the sanitizer CI job) --------

TEST(TsanStressTest, LatencyHistogramConcurrentRecordAndSnapshot) {
  agg::LatencyHistogram histogram;
  constexpr int kRecorders = 4;
  constexpr int kSnapshotters = 2;
  constexpr int kRecordsEach = 20'000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  threads.reserve(kRecorders + kSnapshotters);
  for (int t = 0; t < kRecorders; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kRecordsEach; ++i) {
        histogram.record_ns(static_cast<std::int64_t>(t) * 1'000 + i);
      }
    });
  }
  // Concurrent snapshots race the recorders on purpose: the histogram
  // promises per-field coherence, not a consistent cut, so the only
  // invariant mid-flight is "counts never exceed the final total".
  for (int t = 0; t < kSnapshotters; ++t) {
    threads.emplace_back([&histogram, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const agg::LatencySnapshot s = histogram.snapshot();
        if (s.count > kRecorders * kRecordsEach) std::abort();
        std::this_thread::yield();
      }
    });
  }
  for (int t = 0; t < kRecorders; ++t) threads[static_cast<std::size_t>(t)].join();
  stop.store(true, std::memory_order_relaxed);
  for (int t = kRecorders; t < kRecorders + kSnapshotters; ++t) {
    threads[static_cast<std::size_t>(t)].join();
  }

  const agg::LatencySnapshot final_snapshot = histogram.snapshot();
  EXPECT_EQ(final_snapshot.count, kRecorders * kRecordsEach);
  std::int64_t bucket_total = 0;
  for (const std::int64_t b : final_snapshot.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, final_snapshot.count);
}

TEST(TsanStressTest, LatencyRegistryConcurrentNamedAccess) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 2'000; ++i) {
        agg::latency("test.agg.stress." + std::to_string(t % 3))
            .record_ns(i);
        if (i % 64 == 0) (void)agg::sample_latency();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::int64_t total = 0;
  for (const auto& [name, snapshot] : agg::sample_latency()) {
    if (name.rfind("test.agg.stress.", 0) == 0) total += snapshot.count;
  }
  EXPECT_EQ(total, kThreads * 2'000);
}

}  // namespace
}  // namespace ordo
