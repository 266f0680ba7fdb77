#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/thread_safety.hpp"
#include "obs/hw/hw_counters.hpp"
#include "obs/json.hpp"
#include "obs/stopwatch.hpp"
#include "sparse/types.hpp"

#if defined(__linux__)
#include <sched.h>
#include <sys/utsname.h>
#endif

namespace ordo::obs {
namespace {

struct ReportState {
  mutable Mutex mutex;
  std::string name ORDO_GUARDED_BY(mutex);
  std::string output_path ORDO_GUARDED_BY(mutex);
  std::vector<BenchCase> cases ORDO_GUARDED_BY(mutex);
  bool totals_case_added ORDO_GUARDED_BY(mutex) = false;
};

ReportState& state() {
  static ReportState* s = new ReportState;  // outlives atexit handlers
  return *s;
}

std::string read_cpu_model() {
#if defined(__linux__)
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 10, "model name") == 0) {
      std::size_t start = colon + 1;
      while (start < line.size() && line[start] == ' ') ++start;
      return line.substr(start);
    }
  }
#endif
  return "unknown";
}

std::string os_fingerprint() {
#if defined(__linux__)
  utsname u{};
  if (uname(&u) == 0) {
    return std::string(u.sysname) + " " + u.release + " " + u.machine;
  }
#endif
  return "unknown";
}

std::string compiler_fingerprint() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void append_case_json(std::string& out, const BenchCase& c) {
  out += "{\"name\":";
  append_json_string(out, c.name);
  out += ",\"reps\":[";
  for (std::size_t i = 0; i < c.rep_seconds.size(); ++i) {
    if (i > 0) out += ',';
    append_json_double(out, c.rep_seconds[i]);
  }
  out += "],\"median_seconds\":";
  append_json_double(out, c.median_seconds);
  out += ",\"iqr_seconds\":";
  append_json_double(out, c.iqr_seconds);
  out += ",\"counters\":{";
  for (std::size_t i = 0; i < c.counters.size(); ++i) {
    if (i > 0) out += ',';
    append_json_string(out, c.counters[i].first);
    out += ':';
    append_json_double(out, c.counters[i].second);
  }
  out += "}}";
}

}  // namespace

HostInfo host_info() {
  // Leaked: host_info() runs from the atexit report writer, after ordinary
  // function-local statics have been destroyed.
  static const std::string* cpu = new std::string(read_cpu_model());
  static const std::string* os = new std::string(os_fingerprint());
  HostInfo info;
  info.os = *os;
  info.cpu = *cpu;
  info.logical_cpus = static_cast<int>(std::max(
      1u, std::thread::hardware_concurrency()));  // ordo-lint: allow(thread)
  info.compiler = compiler_fingerprint();
#if defined(NDEBUG)
  info.build_type = "Release";
#else
  info.build_type = "Debug";
#endif
  info.hw_backend = hw::backend_name();
  return info;
}

int affinity_cpu_count() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return static_cast<int>(std::max(
      1u, std::thread::hardware_concurrency()));  // ordo-lint: allow(thread)
}

double median_of(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

double iqr_of(std::vector<double> samples) {
  if (samples.size() < 4) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t q1 = samples.size() / 4;
  const std::size_t q3 = (3 * samples.size()) / 4;
  return samples[q3] - samples[q1];
}

void BenchReport::add_case(BenchCase bench_case) {
  // 0.0 is the "unset" sentinel, exactly.
  if (!bench_case.rep_seconds.empty() &&
      bench_case.median_seconds == 0.0) {  // ordo-lint: allow(float-eq)
    bench_case.median_seconds = median_of(bench_case.rep_seconds);
    bench_case.iqr_seconds = iqr_of(bench_case.rep_seconds);
  }
  ReportState& s = state();
  MutexLock lock(s.mutex);
  s.cases.push_back(std::move(bench_case));
}

bool BenchReport::empty() const {
  ReportState& s = state();
  MutexLock lock(s.mutex);
  return s.cases.empty();
}

std::string BenchReport::to_json() const {
  const HostInfo host = host_info();
  ReportState& s = state();
  MutexLock lock(s.mutex);
  std::string out;
  out.reserve(4096);
  out += "{\"schema_version\":";
  out += std::to_string(kBenchReportSchemaVersion);
  out += ",\"name\":";
  append_json_string(out, s.name.empty() ? std::string("bench") : s.name);
  out += ",\"host\":{\"os\":";
  append_json_string(out, host.os);
  out += ",\"cpu\":";
  append_json_string(out, host.cpu);
  out += ",\"logical_cpus\":";
  out += std::to_string(host.logical_cpus);
  out += ",\"compiler\":";
  append_json_string(out, host.compiler);
  out += ",\"build\":";
  append_json_string(out, host.build_type);
  out += ",\"hw_backend\":";
  append_json_string(out, host.hw_backend);
  out += "},\"cases\":[";
  for (std::size_t i = 0; i < s.cases.size(); ++i) {
    if (i > 0) out += ',';
    append_case_json(out, s.cases[i]);
  }
  out += "]}\n";
  return out;
}

void BenchReport::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  require(out.good(), "bench report: cannot open " + path);
  out << to_json();
}

BenchReport& bench_report() {
  static BenchReport report;
  return report;
}

void set_bench_report_name(const std::string& name) {
  ReportState& s = state();
  MutexLock lock(s.mutex);
  if (!s.name.empty() || name.empty()) return;
  s.name = name;
  if (s.output_path.empty()) s.output_path = "BENCH_" + name + ".json";
}

std::string bench_report_name() {
  ReportState& s = state();
  MutexLock lock(s.mutex);
  return s.name;
}

std::string bench_report_output_path() {
  ReportState& s = state();
  MutexLock lock(s.mutex);
  return s.output_path;
}

void set_bench_report_output_path(const std::string& path) {
  ReportState& s = state();
  MutexLock lock(s.mutex);
  s.output_path = path;
}

void write_bench_report() {
  ReportState& s = state();
  std::string path;
  {
    MutexLock lock(s.mutex);
    if (s.output_path.empty() || s.cases.empty()) return;
    path = s.output_path;
  }
  // The report's bottom line: whole-process wall time with the session's
  // counter totals, so even a bench with bespoke cases gets one comparable
  // number per run. Added once, on the first write.
  {
    MutexLock lock(s.mutex);
    if (!s.totals_case_added) {
      s.totals_case_added = true;
      BenchCase total;
      total.name = "process_total_seconds";
      const double uptime = static_cast<double>(trace_now_us()) / 1e6;
      total.rep_seconds.push_back(uptime);
      total.median_seconds = uptime;
      const hw::CounterSet totals = hw::session_totals();
      for (const hw::Reading& r : totals.readings) {
        total.counters.emplace_back(hw::counter_name(r.id), r.value);
      }
      s.cases.push_back(std::move(total));
    }
  }
  bench_report().write_json_file(path);
}

ParsedBenchReport parse_bench_report_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "bench report: cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue root = parse_json(buffer.str());
  require(root.kind == JsonValue::Kind::kObject,
          "bench report: top level must be an object");

  ParsedBenchReport report;
  report.schema_version =
      static_cast<int>(root.at("schema_version").as_int());
  require(report.schema_version == kBenchReportSchemaVersion,
          "bench report: unsupported schema_version in " + path);
  report.name = root.at("name").as_string();
  const JsonValue& host = root.at("host");
  report.host.os = host.at("os").as_string();
  report.host.cpu = host.at("cpu").as_string();
  report.host.logical_cpus =
      static_cast<int>(host.at("logical_cpus").as_int());
  report.host.compiler = host.at("compiler").as_string();
  report.host.build_type = host.at("build").as_string();
  report.host.hw_backend = host.at("hw_backend").as_string();
  for (const JsonValue& c : root.at("cases").items) {
    BenchCase bench_case;
    bench_case.name = c.at("name").as_string();
    for (const JsonValue& rep : c.at("reps").items) {
      bench_case.rep_seconds.push_back(rep.as_double());
    }
    bench_case.median_seconds = c.at("median_seconds").as_double();
    bench_case.iqr_seconds = c.at("iqr_seconds").as_double();
    for (const auto& [key, value] : c.at("counters").members) {
      bench_case.counters.emplace_back(key, value.as_double());
    }
    report.cases.push_back(std::move(bench_case));
  }
  return report;
}

}  // namespace ordo::obs
