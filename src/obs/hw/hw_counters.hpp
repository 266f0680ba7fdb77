// ordo::obs::hw — hardware performance counters for the study pipeline.
//
// The paper explains reordering wins through cache behaviour; wall time
// alone cannot separate a real locality gain from noise. This layer reads
// the Linux perf_event subsystem around scoped regions so every SpMV
// evaluation and reorder phase can attribute its time to counter-level
// causes: cycles, instructions, LLC/L1d misses, stalled cycles, plus
// software fallbacks (task clock, page faults, context switches).
//
// Design:
//  * One process-wide *session* of counters, opened once (ORDO_HW=1 or
//    set_enabled(true)) and left running for the process lifetime. A
//    CounterScope never opens file descriptors — it snapshots the session
//    counters at construction and again at stop()/destruction and reports
//    the deltas, so scopes nest arbitrarily and cost two read() batches.
//  * Multiplexing-aware scaling: the kernel time-slices the PMU when more
//    events are requested than it has slots, so every read carries
//    time_enabled/time_running and window deltas are extrapolated by
//    enabled/running (scale_window — the same correction `perf stat`
//    applies). A counter that never ran in a window is reported as ABSENT,
//    not zero.
//  * Graceful degradation, never a hard failure: events that cannot be
//    opened (perf_event_paranoid, containers without a PMU, non-Linux) are
//    simply dropped; when nothing opens the session is the *null backend* —
//    enabled() may be true while available() is false, every scope is a
//    no-op, and readings come back with available == false so callers
//    report "absent" rather than garbage zeros.
//
// Environment knobs:
//   ORDO_HW=1         open the counter session at obs::init_from_env()
//   ORDO_PEAK_GBPS=X  take X as the machine's peak memory bandwidth instead
//                     of measuring it (see membw.hpp)
//
// A --hw study times and counts each kernel through its own CounterScope
// (core/experiment.cpp); engine launches carry no counter window.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ordo::obs::hw {

/// The counter set a session tries to open, in priority order. Hardware
/// events first; the trailing software events exist so a PMU-less host
/// (VMs, most CI containers) still gets *some* attribution.
enum class CounterId {
  kCycles = 0,
  kInstructions,
  kCacheReferences,      ///< generalized LLC accesses
  kCacheMisses,          ///< generalized LLC misses
  kLlcLoadMisses,
  kLlcStoreMisses,
  kL1dLoadMisses,
  kStalledCyclesBackend,
  kTaskClockNs,          ///< software: on-CPU nanoseconds
  kPageFaults,           ///< software
  kContextSwitches,      ///< software
};
inline constexpr int kNumCounterIds = 11;

/// Stable short name ("cycles", "llc_load_misses", ...), used for metric
/// names, bench-report counter keys and the journal's config fingerprint.
std::string counter_name(CounterId id);

/// One raw read of one counter: the value plus the enabled/running times
/// the kernel reports for multiplex correction.
struct RawSample {
  std::uint64_t value = 0;
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;
};

/// A window delta between two samples of the same counter, extrapolated for
/// multiplexing. `ran` is false when the counter was scheduled for none of
/// the window (delta running == 0) — such a window has no information and
/// must be treated as absent, not zero.
struct WindowDelta {
  double value = 0.0;  ///< raw delta × scale
  double scale = 1.0;  ///< enabled/running over the window (≥ 1)
  bool multiplexed = false;
  bool ran = false;
};

/// Multiplex scaling math, exposed for tests on synthetic samples:
/// value = (end.value − begin.value) × (Δenabled / Δrunning).
WindowDelta scale_window(const RawSample& begin, const RawSample& end);

/// One scaled counter reading of a closed scope.
struct Reading {
  CounterId id = CounterId::kCycles;
  double value = 0.0;
  double scale = 1.0;
  bool multiplexed = false;
};

/// All readings of a closed scope. `available` is false on the null backend
/// (or when every counter was multiplexed out of the window).
struct CounterSet {
  bool available = false;
  std::vector<Reading> readings;

  const Reading* find(CounterId id) const;
  /// Scaled value, or nullopt when the counter is absent from this set.
  std::optional<double> value(CounterId id) const;
};

/// The derived per-region metrics the paper reasons about. `valid` requires
/// the full hardware quartet (cycles, instructions, cache references and
/// misses); software-only sessions never report valid derived metrics —
/// absence is preferred over a number that means something else.
struct DerivedMetrics {
  bool valid = false;
  double ipc = 0.0;            ///< instructions / cycles
  double llc_miss_rate = 0.0;  ///< LLC misses / LLC references, in [0, 1]
  double est_bytes = 0.0;      ///< cache-line bytes moved: 64 × LLC misses
  double gbps = 0.0;           ///< est_bytes / seconds / 1e9
};

/// Derives IPC / miss rate / estimated traffic from a reading set over a
/// region that took `seconds` of wall time. Prefers the explicit
/// LLC-load+store miss pair for traffic when present, else the generalized
/// miss count. A non-positive `seconds` invalidates the whole result: a
/// zero-length window means the caller's timing is broken, and rates over
/// it would be garbage.
DerivedMetrics derive_metrics(const CounterSet& counters, double seconds);

/// Bytes per cache line assumed by est_bytes (64 on every studied machine).
std::int64_t cache_line_bytes();

// --- the process-wide session ----------------------------------------------

/// Reads ORDO_PEAK_GBPS (membw.hpp; a malformed value throws) and ORDO_HW,
/// and opens the session when requested.
/// Idempotent; called from obs::init_from_env().
void init_from_env();

/// True when counter collection was requested (ORDO_HW=1 / set_enabled).
bool enabled();

/// Requesting enables opens the session (a no-op if already open); the null
/// backend is NOT an error — check available() for whether anything opened.
void set_enabled(bool enabled);

/// True when the session holds at least one open counter.
bool available();

/// "perf" (hardware events opened), "perf-software" (only software events
/// opened), or "null" (nothing opened / not enabled / non-Linux).
std::string backend_name();

/// One human-readable line: which counters opened, or why nothing did
/// (e.g. the perf_event_paranoid value to relay to the operator).
std::string backend_detail();

/// Identity of the counter configuration for checkpoint fingerprints:
/// "off" when disabled, else backend + the opened counter list. Resumed
/// runs must not silently mix counter-on and counter-off rows.
std::string config_fingerprint();

/// Reads the session totals since the session opened (process-lifetime
/// counters); available == false on the null backend.
CounterSet session_totals();

/// RAII counter window over the running session. Construction snapshots
/// every session counter; stop() (or destruction) snapshots again and
/// reports the scaled deltas. When `metric_name` is nonempty, closing the
/// scope also records each reading into the metrics registry as
/// `hw.<metric_name>.<counter>` histograms. No-op on the null backend.
class CounterScope {
 public:
  CounterScope() : CounterScope(std::string()) {}
  explicit CounterScope(std::string metric_name);
  ~CounterScope();
  CounterScope(const CounterScope&) = delete;
  CounterScope& operator=(const CounterScope&) = delete;

  /// Closes the window and returns the deltas. Idempotent: later calls
  /// (and the destructor) return/record the first close's result.
  const CounterSet& stop();

 private:
  std::string metric_name_;
  bool open_ = false;
  std::vector<RawSample> begin_;  // one slot per open session counter
  CounterSet result_;
};

}  // namespace ordo::obs::hw
