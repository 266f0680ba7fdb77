#include "obs/hw/hw_counters.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/thread_safety.hpp"
#include "obs/hw/membw.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#define ORDO_HW_HAVE_PERF 1
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#define ORDO_HW_HAVE_PERF 0
#endif

namespace ordo::obs::hw {
namespace {

struct CounterSpec {
  CounterId id;
  const char* name;
  bool hardware;   // counts against the PMU (vs a software event)
  std::uint32_t type;
  std::uint64_t config;
};

#if ORDO_HW_HAVE_PERF
constexpr std::uint64_t hw_cache(std::uint64_t cache, std::uint64_t op,
                                 std::uint64_t result) {
  return cache | (op << 8) | (result << 16);
}

const CounterSpec kSpecs[] = {
    {CounterId::kCycles, "cycles", true, PERF_TYPE_HARDWARE,
     PERF_COUNT_HW_CPU_CYCLES},
    {CounterId::kInstructions, "instructions", true, PERF_TYPE_HARDWARE,
     PERF_COUNT_HW_INSTRUCTIONS},
    {CounterId::kCacheReferences, "cache_references", true, PERF_TYPE_HARDWARE,
     PERF_COUNT_HW_CACHE_REFERENCES},
    {CounterId::kCacheMisses, "cache_misses", true, PERF_TYPE_HARDWARE,
     PERF_COUNT_HW_CACHE_MISSES},
    {CounterId::kLlcLoadMisses, "llc_load_misses", true, PERF_TYPE_HW_CACHE,
     hw_cache(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
              PERF_COUNT_HW_CACHE_RESULT_MISS)},
    {CounterId::kLlcStoreMisses, "llc_store_misses", true, PERF_TYPE_HW_CACHE,
     hw_cache(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_WRITE,
              PERF_COUNT_HW_CACHE_RESULT_MISS)},
    {CounterId::kL1dLoadMisses, "l1d_load_misses", true, PERF_TYPE_HW_CACHE,
     hw_cache(PERF_COUNT_HW_CACHE_L1D, PERF_COUNT_HW_CACHE_OP_READ,
              PERF_COUNT_HW_CACHE_RESULT_MISS)},
    {CounterId::kStalledCyclesBackend, "stalled_cycles_backend", true,
     PERF_TYPE_HARDWARE, PERF_COUNT_HW_STALLED_CYCLES_BACKEND},
    {CounterId::kTaskClockNs, "task_clock_ns", false, PERF_TYPE_SOFTWARE,
     PERF_COUNT_SW_TASK_CLOCK},
    {CounterId::kPageFaults, "page_faults", false, PERF_TYPE_SOFTWARE,
     PERF_COUNT_SW_PAGE_FAULTS},
    {CounterId::kContextSwitches, "context_switches", false,
     PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CONTEXT_SWITCHES},
};
#endif  // ORDO_HW_HAVE_PERF

const char* kCounterNames[kNumCounterIds] = {
    "cycles",           "instructions",      "cache_references",
    "cache_misses",     "llc_load_misses",   "llc_store_misses",
    "l1d_load_misses",  "stalled_cycles_backend",
    "task_clock_ns",    "page_faults",       "context_switches",
};

struct OpenCounter {
  CounterId id = CounterId::kCycles;
  bool hardware = false;
  int fd = -1;
};

// The session: opened at most once and kept for the process lifetime (like
// the metrics registry). All members are guarded by the mutex — the old
// "counters is immutable once open_attempted" shortcut let a scope observe
// the vector mid-open when set_enabled raced a first CounterScope, so
// readers now take the (uncontended) lock for the duration of the fd loop.
struct Session {
  Mutex mutex;
  bool enabled ORDO_GUARDED_BY(mutex) = false;
  bool open_attempted ORDO_GUARDED_BY(mutex) = false;
  bool any_hardware ORDO_GUARDED_BY(mutex) = false;
  std::vector<OpenCounter> counters ORDO_GUARDED_BY(mutex);
  std::string detail ORDO_GUARDED_BY(mutex) = "not enabled";
};

Session& session() {
  static Session* s = new Session;  // leaked: scopes may close during atexit
  return *s;
}

#if ORDO_HW_HAVE_PERF

int perf_event_open_fd(perf_event_attr* attr) {
  return static_cast<int>(
      syscall(SYS_perf_event_open, attr, 0 /* this process */,
              -1 /* any cpu */, -1 /* no group: inherit forbids
                                      PERF_FORMAT_GROUP */,
              PERF_FLAG_FD_CLOEXEC));
}

int open_counter(const CounterSpec& spec, bool exclude_kernel) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = spec.type;
  attr.config = spec.config;
  attr.disabled = 0;  // runs from open; scopes measure window deltas
  attr.inherit = 1;   // cover worker threads spawned after the open
  attr.exclude_kernel = exclude_kernel ? 1 : 0;
  attr.exclude_hv = 1;
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  return perf_event_open_fd(&attr);
}

int read_paranoid_level() {
  std::FILE* f = std::fopen("/proc/sys/kernel/perf_event_paranoid", "re");
  if (f == nullptr) return -100;
  int level = -100;
  if (std::fscanf(f, "%d", &level) != 1) level = -100;
  std::fclose(f);
  return level;
}

void open_session_locked(Session& s) ORDO_REQUIRES(s.mutex) {
  bool retried_exclude_kernel = false;
  int first_errno = 0;
  for (const CounterSpec& spec : kSpecs) {
    int fd = open_counter(spec, retried_exclude_kernel);
    if (fd < 0 && (errno == EACCES || errno == EPERM) &&
        !retried_exclude_kernel) {
      // perf_event_paranoid >= 2 forbids kernel-side counting for
      // unprivileged processes; user-space-only counting usually still
      // works. Once one event needs the restriction, they all will.
      retried_exclude_kernel = true;
      fd = open_counter(spec, true);
    }
    if (fd < 0) {
      if (first_errno == 0) first_errno = errno;
      continue;
    }
    s.counters.push_back({spec.id, spec.hardware, fd});
    if (spec.hardware) s.any_hardware = true;
  }

  if (s.counters.empty()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "perf_event_open failed (%s; perf_event_paranoid=%d) — "
                  "counters reported as absent",
                  std::strerror(first_errno), read_paranoid_level());
    s.detail = buf;
    return;
  }
  std::string opened;
  for (const OpenCounter& c : s.counters) {
    if (!opened.empty()) opened += ',';
    opened += counter_name(c.id);
  }
  s.detail = (s.any_hardware ? "perf: " : "perf (software only): ") + opened +
             (retried_exclude_kernel ? " [user space only]" : "");
}

bool read_sample(int fd, RawSample& out) {
  std::uint64_t buf[3] = {0, 0, 0};
  const ssize_t n = read(fd, buf, sizeof(buf));
  if (n != static_cast<ssize_t>(sizeof(buf))) return false;
  out.value = buf[0];
  out.time_enabled_ns = buf[1];
  out.time_running_ns = buf[2];
  return true;
}

#else  // !ORDO_HW_HAVE_PERF

void open_session_locked(Session& s) ORDO_REQUIRES(s.mutex) {
  s.detail = "perf_event is Linux-only — counters reported as absent";
}

bool read_sample(int, RawSample&) { return false; }

#endif  // ORDO_HW_HAVE_PERF

void ensure_open(Session& s) {
  MutexLock lock(s.mutex);
  if (s.open_attempted) return;
  s.open_attempted = true;
  open_session_locked(s);
  logf(LogLevel::kProgress, "hw counters: %s", s.detail.c_str());
}

}  // namespace

std::string counter_name(CounterId id) {
  const int index = static_cast<int>(id);
  if (index < 0 || index >= kNumCounterIds) return "unknown";
  return kCounterNames[index];
}

WindowDelta scale_window(const RawSample& begin, const RawSample& end) {
  WindowDelta delta;
  const std::uint64_t d_value = end.value - begin.value;
  const std::uint64_t d_enabled = end.time_enabled_ns - begin.time_enabled_ns;
  const std::uint64_t d_running = end.time_running_ns - begin.time_running_ns;
  if (d_running == 0) {
    // The counter was scheduled for none of this window: there is no basis
    // for extrapolation, so the window carries no information.
    return delta;
  }
  delta.ran = true;
  delta.multiplexed = d_running < d_enabled;
  delta.scale = static_cast<double>(d_enabled) / static_cast<double>(d_running);
  delta.value = static_cast<double>(d_value) * delta.scale;
  return delta;
}

const Reading* CounterSet::find(CounterId id) const {
  for (const Reading& r : readings) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

std::optional<double> CounterSet::value(CounterId id) const {
  const Reading* r = find(id);
  if (r == nullptr) return std::nullopt;
  return r->value;
}

std::int64_t cache_line_bytes() { return 64; }

DerivedMetrics derive_metrics(const CounterSet& counters, double seconds) {
  DerivedMetrics d;
  if (!counters.available) return d;
  const auto cycles = counters.value(CounterId::kCycles);
  const auto instructions = counters.value(CounterId::kInstructions);
  const auto references = counters.value(CounterId::kCacheReferences);
  const auto misses = counters.value(CounterId::kCacheMisses);
  if (!cycles || !instructions || !references || !misses) return d;
  if (*cycles <= 0.0 || *references <= 0.0 || seconds <= 0.0) return d;

  d.ipc = *instructions / *cycles;
  d.llc_miss_rate = *misses / *references;

  // Traffic estimate: the explicit LLC load+store miss pair when the PMU
  // exposes it, else the generalized miss count — either way, one cache
  // line per miss is the lower bound the paper's locality argument uses.
  const auto load_misses = counters.value(CounterId::kLlcLoadMisses);
  const auto store_misses = counters.value(CounterId::kLlcStoreMisses);
  double traffic_misses = *misses;
  if (load_misses && store_misses) {
    traffic_misses = *load_misses + *store_misses;
  }
  d.est_bytes = static_cast<double>(cache_line_bytes()) * traffic_misses;
  d.gbps = d.est_bytes / seconds / 1e9;
  d.valid = true;
  return d;
}

void init_from_env() {
  read_peak_override_from_env();
  if (const char* hw = std::getenv("ORDO_HW")) {
    if (std::strcmp(hw, "0") != 0) set_enabled(true);
  }
}

bool enabled() {
  Session& s = session();
  MutexLock lock(s.mutex);
  return s.enabled;
}

void set_enabled(bool enabled) {
  Session& s = session();
  {
    MutexLock lock(s.mutex);
    s.enabled = enabled;
    if (!enabled) return;
  }
  ensure_open(s);
}

bool available() {
  Session& s = session();
  MutexLock lock(s.mutex);
  return s.enabled && !s.counters.empty();
}

std::string backend_name() {
  Session& s = session();
  MutexLock lock(s.mutex);
  if (!s.enabled || s.counters.empty()) return "null";
  return s.any_hardware ? "perf" : "perf-software";
}

std::string backend_detail() {
  Session& s = session();
  MutexLock lock(s.mutex);
  return s.detail;
}

std::string config_fingerprint() {
  Session& s = session();
  MutexLock lock(s.mutex);
  if (!s.enabled || s.counters.empty()) return "off";
  std::string fp = s.any_hardware ? "perf:" : "perf-software:";
  for (const OpenCounter& c : s.counters) {
    fp += counter_name(c.id);
    fp += ',';
  }
  return fp;
}

CounterSet session_totals() {
  CounterSet set;
  if (!available()) return set;
  Session& s = session();
  MutexLock lock(s.mutex);
  for (const OpenCounter& c : s.counters) {
    RawSample sample;
    if (!read_sample(c.fd, sample)) continue;
    const WindowDelta delta = scale_window(RawSample{}, sample);
    if (!delta.ran) continue;
    set.readings.push_back({c.id, delta.value, delta.scale, delta.multiplexed});
  }
  set.available = !set.readings.empty();
  return set;
}

CounterScope::CounterScope(std::string metric_name)
    : metric_name_(std::move(metric_name)) {
  if (!available()) return;
  Session& s = session();
  MutexLock lock(s.mutex);
  begin_.resize(s.counters.size());
  for (std::size_t i = 0; i < s.counters.size(); ++i) {
    if (!read_sample(s.counters[i].fd, begin_[i])) {
      begin_[i] = RawSample{};  // never-ran window: dropped at stop()
    }
  }
  open_ = true;
}

const CounterSet& CounterScope::stop() {
  if (!open_) return result_;
  open_ = false;
  Session& s = session();
  {
    // Lock only the fd loop: the histogram recording below takes the
    // metrics-registry mutex, and holding both would order the session
    // mutex before it for no benefit.
    MutexLock lock(s.mutex);
    for (std::size_t i = 0; i < begin_.size() && i < s.counters.size(); ++i) {
      RawSample end;
      if (!read_sample(s.counters[i].fd, end)) continue;
      const WindowDelta delta = scale_window(begin_[i], end);
      if (!delta.ran) continue;
      result_.readings.push_back(
          {s.counters[i].id, delta.value, delta.scale, delta.multiplexed});
    }
  }
  result_.available = !result_.readings.empty();
  if (!metric_name_.empty() && result_.available) {
    for (const Reading& r : result_.readings) {
      histogram("hw." + metric_name_ + "." + counter_name(r.id))
          .record(r.value);
    }
  }
  return result_;
}

CounterScope::~CounterScope() { stop(); }

}  // namespace ordo::obs::hw
