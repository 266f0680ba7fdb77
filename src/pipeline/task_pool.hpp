// Work-stealing thread pool for the study pipeline.
//
// Each worker owns a deque: it pops its own work from the back (LIFO, warm
// caches) and steals from the front of a victim's deque (FIFO, oldest work
// first). Submissions from outside the pool are dealt round-robin across
// the deques. The study sweep submits one task per worker, each of which
// takes matrices largest first from a shared cursor (study_pipeline.hpp),
// so its balance does not rest on stealing.
//
// Tasks must not throw — the pipeline wraps every study task in its own
// error isolation; a task that does throw anyway terminates the process
// (matching the repo-wide fail-fast idiom for internal invariants).
//
// A worker counts as busy in the fork budget (pipeline/fork_join.hpp) while
// it runs a task, so partitioner forks only take cores the pool leaves idle.
//
// Observability: `pipeline.pool.occupancy` (gauge, running tasks),
// `pipeline.pool.steals` (counter) — see src/obs.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/thread_safety.hpp"

namespace ordo::pipeline {

class TaskPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit TaskPool(int threads);
  /// Waits for all submitted tasks, then joins the workers.
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueues a task; never blocks.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  struct Worker {
    Mutex mutex;
    std::deque<std::function<void()>> queue ORDO_GUARDED_BY(mutex);
  };

  bool try_pop_own(std::size_t self, std::function<void()>& task);
  bool try_steal(std::size_t self, std::function<void()>& task);
  void worker_loop(std::size_t self);

  // ordo-analyze: allow(guard-coverage) sized in the constructor before any
  // worker starts, never resized; Worker contents carry their own guards.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // wake_mutex_ guards the counters below and the two condition variables;
  // per-worker queue mutexes are never held while taking it.
  Mutex wake_mutex_;
  std::condition_variable wake_cv_;  ///< workers sleep here when starved
  std::condition_variable idle_cv_;  ///< wait_idle() sleeps here
  std::size_t unclaimed_ ORDO_GUARDED_BY(wake_mutex_) = 0;
  std::size_t in_flight_ ORDO_GUARDED_BY(wake_mutex_) = 0;
  std::size_t next_ ORDO_GUARDED_BY(wake_mutex_) = 0;
  bool stop_ ORDO_GUARDED_BY(wake_mutex_) = false;
};

}  // namespace ordo::pipeline
