// Process-wide selector telemetry: every recorded decision (pick, oracle,
// regret, amortization point) lands in lock-free atomics here, and the first
// recording registers a "select" section with the live StatusBoard — so a
// running --auto-order sweep exposes its pick distribution, hit rate vs the
// oracle, and an amortization histogram in the status heartbeat, next to
// the engine's plan-cache section.
#pragma once

#include <array>
#include <cstdint>

#include "select/model.hpp"

namespace ordo::select {

/// Upper edges of the amortization histogram in SpMV calls; the two extra
/// buckets hold ">last edge" and "never amortizes".
inline constexpr std::array<double, 5> kAmortizeBucketEdges = {
    1.0, 1e2, 1e3, 1e4, 1e5};
inline constexpr std::size_t kAmortizeBuckets =
    kAmortizeBucketEdges.size() + 2;

struct StatsSnapshot {
  std::int64_t decisions = 0;
  std::int64_t oracle_hits = 0;
  std::array<std::int64_t, kNumOrderings> picks{};
  double regret_sum = 0.0;
  double regret_max = 0.0;
  /// Buckets: <=1, <=1e2, <=1e3, <=1e4, <=1e5 calls, then ">1e5" and
  /// "never amortizes" (kNeverAmortizes decisions).
  std::array<std::int64_t, kAmortizeBuckets> amortize_hist{};

  double hit_rate() const {
    return decisions > 0 ? static_cast<double>(oracle_hits) /
                               static_cast<double>(decisions)
                         : 0.0;
  }
  double mean_regret() const {
    return decisions > 0 ? regret_sum / static_cast<double>(decisions) : 0.0;
  }
};

/// Records one annotated row's decision. `amortize_calls` uses the study's
/// encoding: kNeverAmortizes (-1) for "never", 0 for "pick was Original".
/// Thread-safe; the study's task pool calls this concurrently.
void record_decision(int pick, int oracle, double regret,
                     double amortize_calls);

StatsSnapshot stats_snapshot();

/// Zeroes the counters (tests; a new run_study process starts clean anyway).
void reset_stats();

}  // namespace ordo::select
