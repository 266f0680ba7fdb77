#include "obs/status/status.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <unistd.h>

#include "core/thread_safety.hpp"
#include "obs/hw/hw_counters.hpp"
#include "obs/hw/membw.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/status/heartbeat.hpp"
#include "sparse/types.hpp"

namespace ordo::obs::status {
namespace {

// Worker slots: one per thread that ever ran a study task. Fixed-size so a
// snapshot can walk the table without taking a board-wide lock; 256 is far
// past any sane --jobs value. A thread claims a slot on its first
// task_started and keeps it until the thread exits (the TLS lease below
// releases it), so pool churn across repeated runs in one process recycles
// slots instead of exhausting them.
constexpr int kMaxSlots = 256;

// EWMA weight of the newest completed task in the ETA estimate: heavy
// enough to track the corpus's three-orders-of-magnitude nnz spread as the
// sweep moves through size classes, damped enough that one outlier matrix
// does not whipsaw the forecast.
constexpr double kEwmaAlpha = 0.2;

struct Slot {
  std::atomic<bool> claimed{false};  ///< owned by some live thread
  std::atomic<bool> active{false};   ///< a task is in flight on this slot
  std::atomic<int> index{-1};
  std::atomic<std::int64_t> start_us{0};
  std::atomic<std::int64_t> deadline_us{0};  ///< 0 = no deadline
  std::atomic<const char*> phase{nullptr};   ///< static-storage strings only
  mutable Mutex name_mutex;
  std::string name ORDO_GUARDED_BY(name_mutex);
};

struct Board {
  // ordo-analyze: allow(guard-coverage) the array itself is immutable;
  // each Slot self-synchronises via its claimed/active atomics + name_mutex.
  Slot slots[kMaxSlots];

  // Run progress. Plain atomics: hooks are per-task, never per-inner-loop.
  std::atomic<bool> running{false};
  std::atomic<std::int64_t> total{0};
  std::atomic<std::int64_t> completed{0};
  std::atomic<std::int64_t> failed{0};
  std::atomic<std::int64_t> timeouts{0};
  std::atomic<std::int64_t> resumed{0};
  std::atomic<int> workers{0};
  std::atomic<std::int64_t> run_start_us{0};

  // ETA state, touched once per task completion.
  Mutex ewma_mutex;
  double ewma_task_seconds ORDO_GUARDED_BY(ewma_mutex) = 0.0;
  std::int64_t ewma_count ORDO_GUARDED_BY(ewma_mutex) = 0;

  // Snapshot-serial state: per-counter values of the previous snapshot (for
  // deltas) and the previous hw sample (for the counter window).
  Mutex snapshot_mutex;
  std::map<std::string, std::int64_t> last_counters
      ORDO_GUARDED_BY(snapshot_mutex);
  hw::CounterSet last_hw ORDO_GUARDED_BY(snapshot_mutex);
  std::int64_t last_hw_us ORDO_GUARDED_BY(snapshot_mutex) = 0;
};

Board& board() {
  static Board* b = new Board;  // leaked: outlives TLS destructors and atexit
  return *b;
}

// Releases the thread's slot when the thread dies, so joined pool workers
// from a finished run hand their slots to the next run's pool.
struct SlotLease {
  int slot = -1;
  ~SlotLease() {
    if (slot < 0) return;
    Slot& s = board().slots[slot];
    // Release pairs with the acquire CAS in claim_slot: the next thread to
    // claim this slot must observe it fully quiesced.
    s.active.store(false, std::memory_order_release);
    s.claimed.store(false, std::memory_order_release);
  }
};
thread_local SlotLease tls_lease;

int claim_slot() {
  if (tls_lease.slot >= 0) return tls_lease.slot;
  Board& b = board();
  for (int i = 0; i < kMaxSlots; ++i) {
    bool expected = false;
    // acq_rel: acquire the previous owner's release above, publish the
    // claim before this thread starts writing slot fields.
    if (b.slots[i].claimed.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      tls_lease.slot = i;
      return i;
    }
  }
  return -1;  // table full: progress counters still work, the slot view not
}

void append_kv(std::string& out, const char* key, std::int64_t value) {
  append_json_string(out, key);
  out += ':';
  out += std::to_string(value);
}

void append_kv(std::string& out, const char* key, double value) {
  append_json_string(out, key);
  out += ':';
  append_json_double(out, value);
}

void append_kv(std::string& out, const char* key, const std::string& value) {
  append_json_string(out, key);
  out += ':';
  append_json_string(out, value);
}

void append_run_section(std::string& out, const ProgressSnapshot& p) {
  out += "\"run\":{";
  append_json_string(out, "running");
  out += p.running ? ":true," : ":false,";
  append_kv(out, "total", p.total);
  out += ',';
  append_kv(out, "completed", p.completed);
  out += ',';
  append_kv(out, "failed", p.failed);
  out += ',';
  append_kv(out, "timeouts", p.timeouts);
  out += ',';
  append_kv(out, "resumed", p.resumed);
  out += ',';
  append_kv(out, "in_flight", static_cast<std::int64_t>(p.in_flight));
  out += ',';
  append_kv(out, "workers", static_cast<std::int64_t>(p.workers));
  out += ',';
  append_kv(out, "fraction", p.fraction);
  out += ',';
  append_kv(out, "elapsed_seconds", p.elapsed_seconds);
  // ETA and rate are absent — not 0 — until this run's first completion: a
  // monitor must distinguish "no forecast yet" from "done any second now".
  if (p.has_eta) {
    out += ',';
    append_kv(out, "eta_seconds", p.eta_seconds);
  }
  if (p.has_rate) {
    out += ',';
    append_kv(out, "rate_tasks_per_second", p.rate_tasks_per_second);
  }
  out += '}';
}

void append_workers_section(std::string& out,
                            const std::vector<WorkerSnapshot>& workers) {
  out += "\"workers\":[";
  bool first = true;
  for (const WorkerSnapshot& w : workers) {
    if (!first) out += ',';
    first = false;
    out += '{';
    append_kv(out, "slot", static_cast<std::int64_t>(w.slot));
    out += ',';
    append_kv(out, "task_index", static_cast<std::int64_t>(w.task_index));
    out += ',';
    append_kv(out, "matrix", w.matrix);
    out += ',';
    append_kv(out, "phase", w.phase);
    out += ',';
    append_kv(out, "elapsed_seconds", w.elapsed_seconds);
    if (w.has_deadline) {
      out += ',';
      append_kv(out, "deadline_margin_seconds", w.deadline_margin_seconds);
    }
    out += '}';
  }
  out += ']';
}

// The metrics registry with per-counter deltas since the previous snapshot
// (the caller holds the snapshot mutex, which is what makes "previous
// snapshot" well defined).
void append_metrics_section(std::string& out,
                            std::map<std::string, std::int64_t>& last) {
  out += "\"metrics\":{\"counters\":{";
  const std::vector<MetricSample> samples = sample_metrics();
  bool first = true;
  std::map<std::string, std::int64_t> current;
  for (const MetricSample& s : samples) {
    if (s.kind != MetricSample::Kind::kCounter) continue;
    if (!first) out += ',';
    first = false;
    append_json_string(out, s.name);
    out += ":{";
    append_kv(out, "value", s.counter_value);
    out += ',';
    const auto it = last.find(s.name);
    append_kv(out, "delta",
              s.counter_value - (it == last.end() ? 0 : it->second));
    out += '}';
    current[s.name] = s.counter_value;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const MetricSample& s : samples) {
    if (s.kind != MetricSample::Kind::kGauge) continue;
    if (!first) out += ',';
    first = false;
    append_kv(out, s.name.c_str(), s.gauge_value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const MetricSample& s : samples) {
    // Absent, never zero: a registered histogram appears once it has a
    // sample.
    if (s.kind != MetricSample::Kind::kHistogram || s.histogram.count == 0) {
      continue;
    }
    if (!first) out += ',';
    first = false;
    append_json_string(out, s.name);
    out += ':';
    append_histogram_json(out, s.histogram);
  }
  out += "}}";
  last = std::move(current);
}

// The latest hardware-counter window: session totals diffed against the
// previous snapshot's totals (the first window spans process start). The
// section exists only when a hw session is enabled, and the derived fields
// only when the window is valid — absent, never zero.
void append_hw_section(std::string& out, Board& b, std::int64_t now_us)
    ORDO_REQUIRES(b.snapshot_mutex) {
  const hw::CounterSet totals = hw::session_totals();
  out += "\"hw\":{";
  append_kv(out, "backend", hw::backend_name());
  const double window_seconds =
      static_cast<double>(now_us - b.last_hw_us) / 1e6;
  hw::CounterSet window;
  window.available = totals.available;
  for (const hw::Reading& reading : totals.readings) {
    hw::Reading delta = reading;
    if (const hw::Reading* prev = b.last_hw.find(reading.id)) {
      delta.value = std::max(0.0, reading.value - prev->value);
    }
    window.readings.push_back(delta);
  }
  const hw::DerivedMetrics derived =
      hw::derive_metrics(window, window_seconds);
  out += ',';
  append_kv(out, "window_seconds", window_seconds);
  if (derived.valid) {
    out += ',';
    append_kv(out, "ipc", derived.ipc);
    out += ',';
    append_kv(out, "llc_miss_rate", derived.llc_miss_rate);
    out += ',';
    append_kv(out, "gbps", derived.gbps);
    const double peak = hw::measured_peak_gbps();
    if (peak > 0.0) {
      out += ',';
      append_kv(out, "peak_gbps", peak);
      out += ',';
      append_kv(out, "achieved_frac", derived.gbps / peak);
    }
  }
  out += '}';
  b.last_hw = totals;
  b.last_hw_us = now_us;
}

// --- process-wide consumers ------------------------------------------------

Mutex g_consumer_mutex;
std::unique_ptr<HeartbeatWriter> g_heartbeat
    ORDO_GUARDED_BY(g_consumer_mutex);
std::atomic<bool> g_consumers{false};

}  // namespace

void begin_run(std::int64_t total, int workers, std::int64_t resumed) {
  Board& b = board();
  {
    MutexLock lock(b.ewma_mutex);
    b.ewma_task_seconds = 0.0;
    b.ewma_count = 0;
  }
  // Relaxed: independent progress counters, each read individually for
  // display; the release store on `running` below publishes them all.
  b.total.store(total, std::memory_order_relaxed);
  b.completed.store(0, std::memory_order_relaxed);
  b.failed.store(0, std::memory_order_relaxed);
  b.timeouts.store(0, std::memory_order_relaxed);
  b.resumed.store(resumed, std::memory_order_relaxed);
  b.workers.store(workers, std::memory_order_relaxed);
  b.run_start_us.store(trace_now_us(), std::memory_order_relaxed);
  b.running.store(true, std::memory_order_release);
}

void end_run() {
  // Relaxed: nothing is published with the end-of-run flip; snapshot
  // readers tolerate counters that settle a poll later.
  board().running.store(false, std::memory_order_relaxed);
}

void task_started(int index, const std::string& name,
                  double deadline_seconds) {
  const int slot_id = claim_slot();
  if (slot_id < 0) return;
  Slot& slot = board().slots[slot_id];
  {
    MutexLock lock(slot.name_mutex);
    slot.name = name;
  }
  const std::int64_t now = trace_now_us();
  // Relaxed field stores, published by the release store on `active`:
  // snapshot readers only look at them after an acquire load sees true.
  slot.index.store(index, std::memory_order_relaxed);
  slot.start_us.store(now, std::memory_order_relaxed);
  slot.deadline_us.store(
      deadline_seconds > 0.0
          ? now + static_cast<std::int64_t>(deadline_seconds * 1e6)
          : 0,
      std::memory_order_relaxed);
  slot.phase.store(nullptr, std::memory_order_relaxed);
  slot.active.store(true, std::memory_order_release);
}

void set_phase(const char* phase) {
  const int slot_id = tls_lease.slot;
  if (slot_id < 0) return;
  Slot& slot = board().slots[slot_id];
  // Relaxed: the phase is advisory display state on the owner's own slot;
  // the active flag's release store already ordered the slot handoff.
  if (!slot.active.load(std::memory_order_relaxed)) return;
  slot.phase.store(phase, std::memory_order_relaxed);
}

void task_finished(bool failed, bool timed_out, double seconds) {
  Board& b = board();
  // Relaxed: pure tallies — no reader infers other state from them.
  if (failed) {
    b.failed.fetch_add(1, std::memory_order_relaxed);
    if (timed_out) b.timeouts.fetch_add(1, std::memory_order_relaxed);
  } else {
    b.completed.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(b.ewma_mutex);
    b.ewma_task_seconds = b.ewma_count == 0
                              ? seconds
                              : kEwmaAlpha * seconds +
                                    (1.0 - kEwmaAlpha) * b.ewma_task_seconds;
    b.ewma_count += 1;
  }
  if (tls_lease.slot >= 0) {
    // Release pairs with the snapshot readers' acquire: a slot seen
    // inactive must not still show this task's fields as live.
    b.slots[tls_lease.slot].active.store(false, std::memory_order_release);
  }
}

ProgressSnapshot progress() {
  Board& b = board();
  ProgressSnapshot p;
  // Acquire pairs with begin_run's release, ordering the counter reads
  // below after the run-start publication; the counters themselves are
  // relaxed tallies.
  p.running = b.running.load(std::memory_order_acquire);
  p.total = b.total.load(std::memory_order_relaxed);
  p.completed = b.completed.load(std::memory_order_relaxed);
  p.failed = b.failed.load(std::memory_order_relaxed);
  p.timeouts = b.timeouts.load(std::memory_order_relaxed);
  p.resumed = b.resumed.load(std::memory_order_relaxed);
  p.workers = b.workers.load(std::memory_order_relaxed);
  for (const Slot& slot : b.slots) {
    // Relaxed: the pair is a momentary occupancy count, not a data handoff.
    if (slot.claimed.load(std::memory_order_relaxed) &&
        slot.active.load(std::memory_order_relaxed)) {
      ++p.in_flight;
    }
  }
  const std::int64_t done = p.resumed + p.completed + p.failed;
  p.fraction = p.total > 0 ? static_cast<double>(done) /
                                 static_cast<double>(p.total)
                           : 0.0;
  // Relaxed: published by the `running` release/acquire pair above.
  p.elapsed_seconds =
      static_cast<double>(trace_now_us() -
                          b.run_start_us.load(std::memory_order_relaxed)) /
      1e6;
  double ewma = 0.0;
  std::int64_t ewma_count = 0;
  {
    MutexLock lock(b.ewma_mutex);
    ewma = b.ewma_task_seconds;
    ewma_count = b.ewma_count;
  }
  if (ewma_count > 0 && p.total > done) {
    p.has_eta = true;
    p.eta_seconds = static_cast<double>(p.total - done) * ewma /
                    std::max(1, p.workers);
  }
  if (ewma_count > 0 && ewma > 0.0) {
    p.has_rate = true;
    p.rate_tasks_per_second =
        static_cast<double>(std::max(1, p.workers)) / ewma;
  }
  return p;
}

std::vector<WorkerSnapshot> in_flight_workers() {
  Board& b = board();
  const std::int64_t now = trace_now_us();
  std::vector<WorkerSnapshot> workers;
  for (int i = 0; i < kMaxSlots; ++i) {
    Slot& slot = b.slots[i];
    // Relaxed claim check; the acquire on `active` pairs with
    // task_started's release so the field reads below see that task's
    // values.
    if (!slot.claimed.load(std::memory_order_relaxed) ||
        !slot.active.load(std::memory_order_acquire)) {
      continue;
    }
    WorkerSnapshot w;
    w.slot = i;
    // Relaxed: all published by the acquire load on `active` above.
    w.task_index = slot.index.load(std::memory_order_relaxed);
    {
      MutexLock lock(slot.name_mutex);
      w.matrix = slot.name;
    }
    const char* phase = slot.phase.load(std::memory_order_relaxed);
    w.phase = phase != nullptr ? phase : "";
    w.elapsed_seconds =
        static_cast<double>(now - slot.start_us.load(
                                      std::memory_order_relaxed)) /
        1e6;
    const std::int64_t deadline =
        slot.deadline_us.load(std::memory_order_relaxed);
    if (deadline > 0) {
      w.has_deadline = true;
      w.deadline_margin_seconds = static_cast<double>(deadline - now) / 1e6;
    }
    workers.push_back(std::move(w));
  }
  return workers;
}

std::string snapshot_json() {
  Board& b = board();
  ORDO_COUNTER_ADD("status.snapshots", 1);
  // The long-standing "metrics only exist at atexit" gap: every snapshot
  // also refreshes the on-disk ordo_metrics.json (atomic rename; no-op when
  // ORDO_METRICS is unset).
  flush_metrics();

  MutexLock lock(b.snapshot_mutex);
  const std::int64_t now_us = trace_now_us();
  std::string out;
  out.reserve(4096);
  out += "{\"schema_version\":";
  out += std::to_string(kStatusSchemaVersion);
  out += ',';
  append_kv(out, "pid", static_cast<std::int64_t>(::getpid()));
  out += ',';
  append_kv(out, "uptime_seconds", static_cast<double>(now_us) / 1e6);
  out += ',';
  append_run_section(out, progress());
  out += ',';
  append_workers_section(out, in_flight_workers());
  out += ',';
  append_metrics_section(out, b.last_counters);
  if (hw::enabled()) {
    out += ',';
    append_hw_section(out, b, now_us);
  }
  out += '}';
  return out;
}

void init_from_env() {
  if (const char* path = std::getenv("ORDO_STATUS_FILE")) {
    if (*path != '\0') {
      double interval = 1.0;
      if (const char* raw = std::getenv("ORDO_STATUS_INTERVAL")) {
        interval = parse_real_number(raw, "ORDO_STATUS_INTERVAL", 0.0);
      }
      start_heartbeat(path, interval);
    }
  }
}

void start_heartbeat(const std::string& path, double interval_seconds) {
  auto writer = std::make_unique<HeartbeatWriter>(path, interval_seconds);
  MutexLock lock(g_consumer_mutex);
  g_heartbeat = std::move(writer);
  // Relaxed: a hook racing the flip merely skips (or takes) one phase
  // marker; the writer itself is guarded by the mutex.
  g_consumers.store(true, std::memory_order_relaxed);
}

bool consumers_active() {
  // Relaxed: same reasoning as start_heartbeat.
  return g_consumers.load(std::memory_order_relaxed);
}

void stop() {
  std::unique_ptr<HeartbeatWriter> heartbeat;
  {
    MutexLock lock(g_consumer_mutex);
    heartbeat = std::move(g_heartbeat);
    // Relaxed: same reasoning as start_heartbeat.
    g_consumers.store(false, std::memory_order_relaxed);
  }
  // The destructor writes the final snapshot and joins the writer thread,
  // outside the consumer mutex so a slow join cannot deadlock a concurrent
  // start_heartbeat.
  heartbeat.reset();
}

}  // namespace ordo::obs::status
