// Heartbeat file writer — the live-status transport: every interval the
// current StatusBoard snapshot is written to `path` via write-temp-then-
// rename, so any reader (ordo_top --file, a cron job, an NFS-mounted
// dashboard) always sees a complete JSON document — either the previous
// snapshot or the new one, never a torn write. A killed process leaves the
// last completed snapshot behind; an orderly stop() writes one final
// snapshot first.
#pragma once

#include <condition_variable>
#include <string>
#include <thread>

#include "core/thread_safety.hpp"

namespace ordo::obs::status {

class HeartbeatWriter {
 public:
  /// Writes a first snapshot immediately, then every `interval_seconds`
  /// (clamped to at least 100 ms) from a background thread. Throws
  /// invalid_argument_error when `path` is not writable — or when `path`
  /// already holds the live heartbeat of a *different* process (the
  /// snapshot's "pid" names a still-running pid other than ours): two
  /// concurrent writers on one path would tear each other's snapshots, so
  /// every process must write to its own file. A dead owner's leftover
  /// file is overwritten normally.
  HeartbeatWriter(std::string path, double interval_seconds);
  ~HeartbeatWriter();  // = stop()
  HeartbeatWriter(const HeartbeatWriter&) = delete;
  HeartbeatWriter& operator=(const HeartbeatWriter&) = delete;

  /// Joins the writer thread after one final snapshot write. Idempotent.
  void stop();

 private:
  void loop();
  void write_snapshot();

  // ordo-analyze: allow(guard-coverage) set in the constructor before the
  // writer thread starts and never written again.
  std::string path_;
  // ordo-analyze: allow(guard-coverage) immutable after construction too.
  double interval_seconds_;
  Mutex mutex_;
  std::condition_variable cv_;
  bool stop_ ORDO_GUARDED_BY(mutex_) = false;
  std::thread thread_;      ///< set in the constructor, joined in stop()
};

}  // namespace ordo::obs::status
