#include "obs/status/heartbeat.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/status/status.hpp"
#include "sparse/types.hpp"

namespace ordo::obs::status {
namespace {

/// The pid recorded in an existing heartbeat file, or -1 when the file is
/// absent, unreadable or not a snapshot document (a half-written stranger
/// file is not evidence of a live writer).
long recorded_owner_pid(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return -1;
  std::ostringstream text;
  text << in.rdbuf();
  try {
    const JsonValue doc = parse_json(text.str());
    if (const JsonValue* pid = doc.find("pid")) return pid->as_int();
  } catch (const std::exception&) {
    // Not a snapshot document; treat as ownerless.
  }
  return -1;
}

/// Signal-0 liveness probe: EPERM still means "exists" (owned by another
/// user), only ESRCH means the pid is gone.
bool pid_alive(long pid) {
  if (pid <= 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

}  // namespace

HeartbeatWriter::HeartbeatWriter(std::string path, double interval_seconds)
    : path_(std::move(path)),
      interval_seconds_(std::max(0.1, interval_seconds)) {
  // Refuse to clobber a live foreign heartbeat: if the path already holds a
  // snapshot owned by a different, still-running process, two writers would
  // alternate each other's state on one file (the classic mistake: two runs
  // started with the same ORDO_STATUS_FILE). A dead owner's leftover is
  // overwritten normally.
  const long owner = recorded_owner_pid(path_);
  require(owner < 0 || owner == static_cast<long>(::getpid()) ||
              !pid_alive(owner),
          "status: heartbeat file " + path_ +
              " is owned by live process pid " + std::to_string(owner) +
              "; refusing to clobber it (give each process its own "
              "ORDO_STATUS_FILE)");
  write_snapshot();  // fail fast on an unwritable path, before the thread
  thread_ = std::thread([this] { loop(); });
  logf(LogLevel::kProgress, "status: heartbeat file %s every %.1fs",
       path_.c_str(), interval_seconds_);
}

HeartbeatWriter::~HeartbeatWriter() { stop(); }

void HeartbeatWriter::stop() {
  {
    MutexLock lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // One final snapshot so the file records the run's end state (the loop
  // may have been mid-sleep for most of an interval).
  try {
    write_snapshot();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ordo: final heartbeat write failed: %s\n",
                 e.what());
  }
}

void HeartbeatWriter::loop() {
  MutexLock lock(mutex_);
  while (!stop_) {
    // Explicit wait loop (not the predicate overload) so the guarded stop_
    // reads stay lexically under the lock for -Wthread-safety.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::duration<double>(interval_seconds_));
    while (!stop_ && cv_.wait_until(lock.native(), deadline) !=
                         std::cv_status::timeout) {
    }
    if (stop_) break;
    lock.unlock();
    try {
      write_snapshot();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ordo: heartbeat write failed: %s\n", e.what());
    }
    lock.lock();
  }
}

void HeartbeatWriter::write_snapshot() {
  // Temp-then-rename: readers never observe a torn document, and the rename
  // is atomic on every POSIX filesystem the study runs on.
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    require(out.good(), "status: cannot open heartbeat file " + tmp);
    out << snapshot_json() << '\n';
    require(out.good(), "status: failed writing heartbeat file " + tmp);
  }
  require(std::rename(tmp.c_str(), path_.c_str()) == 0,
          "status: cannot rename " + tmp + " to " + path_);
}

}  // namespace ordo::obs::status
