#include "pipeline/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/obs.hpp"
#include "pipeline/fork_join.hpp"

namespace ordo::pipeline {

#if defined(ORDO_OBS_ENABLED)
namespace {
// Running-task count across all pools, mirrored into the occupancy gauge
// (the metrics registry is process-wide, so the count is too).
std::atomic<int> g_running{0};
}  // namespace
#endif

TaskPool::TaskPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back(
        [this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }
}

TaskPool::~TaskPool() {
  wait_idle();
  {
    MutexLock lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void TaskPool::submit(std::function<void()> task) {
  std::size_t target;
  {
    MutexLock lock(wake_mutex_);
    target = next_++ % workers_.size();
    ++unclaimed_;
    ++in_flight_;
  }
  {
    MutexLock lock(workers_[target]->mutex);
    workers_[target]->queue.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

void TaskPool::wait_idle() {
  MutexLock lock(wake_mutex_);
  // Explicit wait loop — see worker_loop for why not the predicate form.
  while (in_flight_ != 0) idle_cv_.wait(lock.native());
}

bool TaskPool::try_pop_own(std::size_t self, std::function<void()>& task) {
  Worker& w = *workers_[self];
  MutexLock lock(w.mutex);
  if (w.queue.empty()) return false;
  task = std::move(w.queue.back());
  w.queue.pop_back();
  return true;
}

bool TaskPool::try_steal(std::size_t self, std::function<void()>& task) {
  const std::size_t n = workers_.size();
  for (std::size_t k = 1; k < n; ++k) {
    Worker& victim = *workers_[(self + k) % n];
    MutexLock lock(victim.mutex);
    if (victim.queue.empty()) continue;
    task = std::move(victim.queue.front());
    victim.queue.pop_front();
    ORDO_COUNTER_ADD("pipeline.pool.steals", 1);
    return true;
  }
  return false;
}

void TaskPool::worker_loop(std::size_t self) {
  for (;;) {
    std::function<void()> task;
    if (try_pop_own(self, task) || try_steal(self, task)) {
      {
        MutexLock lock(wake_mutex_);
        --unclaimed_;
      }
#if defined(ORDO_OBS_ENABLED)
      // Relaxed: the occupancy gauge is telemetry; momentarily stale
      // +-1 readings are fine (both fetch_add and fetch_sub below).
      obs::gauge("pipeline.pool.occupancy")
          .set(g_running.fetch_add(1, std::memory_order_relaxed) + 1);
#endif
      {
        const BusyThread busy;  // the fork budget counts running tasks
        task();
      }
#if defined(ORDO_OBS_ENABLED)
      obs::gauge("pipeline.pool.occupancy")
          .set(g_running.fetch_sub(1, std::memory_order_relaxed) - 1);
#endif
      bool idle;
      {
        MutexLock lock(wake_mutex_);
        idle = (--in_flight_ == 0);
      }
      if (idle) idle_cv_.notify_all();
      continue;
    }
    MutexLock lock(wake_mutex_);
    if (stop_) return;
    if (unclaimed_ > 0) continue;  // raced with a submit; rescan the queues
    // Explicit wait loop (not the predicate overload): the guarded reads
    // stay lexically under the lock, where -Wthread-safety can see them.
    while (!stop_ && unclaimed_ == 0) wake_cv_.wait(lock.native());
  }
}

}  // namespace ordo::pipeline
