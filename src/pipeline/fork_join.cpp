#include "pipeline/fork_join.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "core/thread_safety.hpp"
#include "obs/obs.hpp"

namespace ordo::pipeline {
namespace {

// Threads running ordo work; the process's own thread counts from the start.
std::atomic<int> g_busy{1};

int budget_cpus() {
  static const int cpus = obs::affinity_cpu_count();
  return cpus;
}

// The jobs one run_jobs call handed to workers. It lives on the caller's
// stack, so a handoff allocates nothing; `running` is guarded by the pool's
// mutex.
struct Batch {
  const std::function<void(std::size_t)>* job = nullptr;
  std::span<std::exception_ptr> errors;
  std::size_t running = 0;
  std::condition_variable finished;  ///< the caller waits for running == 0
};

// A pool thread. Its fields are guarded by the pool's mutex; `batch` is
// null while the worker is parked.
struct Worker {
  Batch* batch = nullptr;
  std::size_t index = 0;
  std::condition_variable wake;  ///< the parked worker waits for a batch
};

void run_job(Batch& batch, std::size_t index) {
  try {
    (*batch.job)(index);
  } catch (...) {
    batch.errors[index] = std::current_exception();
  }
}

class Pool {
 public:
  static Pool& current();

  /// Hands job `index` of `batch` to the first parked worker, or to a new
  /// one when none is parked; false when no thread could be started.
  bool hand(Batch& batch, std::size_t index);

  /// Returns once every job handed from `batch` has finished.
  void wait(Batch& batch);

 private:
  explicit Pool(pid_t pid) : pid_(pid) {}
  void work(Worker& self);

  // ordo-analyze: allow(guard-coverage) set in the constructor and never
  // written again; current() reads it to tell a forked child's pool apart.
  const pid_t pid_;
  Mutex mutex_;
  // Every worker, in start order. Taking the first parked one keeps jobs,
  // and the largest (the top fork of a recursion) most of all, on the same
  // few workers: each worker's malloc arena keeps its high-water mark, and
  // spreading the large jobs over every worker raised spmv_cache's peak
  // RSS from 134 to 163 MB.
  std::vector<Worker*> workers_ ORDO_GUARDED_BY(mutex_);
};

// The pool is started at the first handoff and leaked with its detached
// workers, like the trace registry: nothing shuts down at exit. A child
// made by fork() has none of its parent's workers and may find the parent's
// mutex held, so it starts a pool of its own.
std::atomic<Pool*> g_pool{nullptr};

Pool& Pool::current() {
  const pid_t pid = ::getpid();
  // Acquire pairs with the exchange below: a thread that finds the pool
  // sees it fully constructed.
  Pool* pool = g_pool.load(std::memory_order_acquire);
  while (pool == nullptr || pool->pid_ != pid) {
    auto* fresh = new Pool(pid);
    // acq_rel publishes the new pool; on failure, acquire the pool another
    // thread installed first and check it again.
    if (g_pool.compare_exchange_strong(pool, fresh, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return *fresh;
    }
    delete fresh;
  }
  return *pool;
}

bool Pool::hand(Batch& batch, std::size_t index) {
  MutexLock lock(mutex_);
  const auto parked =
      std::find_if(workers_.begin(), workers_.end(),
                   [](const Worker* w) { return w->batch == nullptr; });
  Worker* worker = parked != workers_.end() ? *parked : nullptr;
  if (worker == nullptr) {
    try {
      workers_.reserve(workers_.size() + 1);
      worker = new Worker;
      std::thread([this, worker] { work(*worker); }).detach();
    } catch (const std::exception&) {
      delete worker;  // no thread to be had: the caller runs the job
      return false;
    }
    workers_.push_back(worker);  // reserved above, so it cannot throw
  }
  worker->batch = &batch;
  worker->index = index;
  ++batch.running;
  worker->wake.notify_one();
  return true;
}

void Pool::wait(Batch& batch) {
  MutexLock lock(mutex_);
  // Explicit wait loops (not the predicate overload) here and in work():
  // the guarded reads stay lexically under the lock.
  while (batch.running != 0) batch.finished.wait(lock.native());
}

void Pool::work(Worker& self) {
  MutexLock lock(mutex_);
  for (;;) {
    while (self.batch == nullptr) self.wake.wait(lock.native());
    Batch& batch = *self.batch;
    const std::size_t index = self.index;
    lock.unlock();
    run_job(batch, index);
    lock.lock();
    self.batch = nullptr;
    // The core comes back once this worker is parked, so whoever claims it
    // finds a worker for it, and before the caller wakes, so the caller's
    // next fork finds it idle.
    release_cores(1);
    // Under the lock: `batch` dies with the caller's frame once it sees
    // running == 0.
    if (--batch.running == 0) batch.finished.notify_one();
  }
}

// Runs job(0) on the calling thread and job(1), ..., job(n - 1), where
// n = errors.size() >= 2, each on a pool worker, and returns once all have
// finished: the one primitive under run_tasks, fork_join and parallel_for.
// The caller has claimed n - 1 cores, which each worker gives back when its
// job ends. An exception escaping job(i) lands in errors[i]. A job no
// thread could be started for gives its core back and runs on the caller.
// Returns how many jobs ran on a worker.
std::size_t run_jobs(std::span<std::exception_ptr> errors,
                     const std::function<void(std::size_t)>& job) {
  Batch batch;
  batch.job = &job;
  batch.errors = errors;
  Pool& pool = Pool::current();
  std::size_t handed = 1;
  while (handed < errors.size() && pool.hand(batch, handed)) ++handed;
  release_cores(static_cast<int>(errors.size() - handed));
  run_job(batch, 0);
  for (std::size_t i = handed; i < errors.size(); ++i) run_job(batch, i);
  pool.wait(batch);
  return handed - 1;
}

void rethrow_first(std::span<const std::exception_ptr> errors) {
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace

int acquire_idle_cores(int want) {
  const int cpus = budget_cpus();
  // Relaxed throughout: the count only rations cores; the data a job reads
  // and writes is published by the pool's mutex at handoff and join.
  int busy = g_busy.load(std::memory_order_relaxed);
  for (;;) {
    const int take = std::min(want, cpus - busy);
    if (take <= 0) return 0;
    // Relaxed: see above; a failed exchange reloads `busy` and retries.
    if (g_busy.compare_exchange_weak(busy, busy + take,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
      return take;
    }
  }
}

void release_cores(int count) {
  // Relaxed: the count only rations cores (see acquire_idle_cores).
  g_busy.fetch_sub(count, std::memory_order_relaxed);
}

void run_tasks(std::size_t count, int threads,
               const std::function<void(std::size_t)>& task) {
  const std::size_t n =
      std::min(count, static_cast<std::size_t>(std::max(threads, 1)));
  if (n <= 1) {
    for (std::size_t k = 0; k < count; ++k) task(k);
    return;
  }
  // The workers' cores are claimed whether or not they are idle.
  // Relaxed: the count only rations cores (see acquire_idle_cores).
  g_busy.fetch_add(static_cast<int>(n - 1), std::memory_order_relaxed);
  std::atomic<std::size_t> cursor{0};
  std::vector<std::exception_ptr> errors(n);
  run_jobs(errors, [&](std::size_t) {
    // Relaxed: the cursor only hands out distinct indices; what a task
    // writes reaches the caller through the pool's join.
    for (std::size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
         k < count; k = cursor.fetch_add(1, std::memory_order_relaxed)) {
      task(k);
    }
  });
  rethrow_first(errors);
}

void fork_join(std::size_t left_vertices, const std::function<void()>& left,
               const std::function<void()>& right) {
  if (left_vertices < kMinForkVertices || acquire_idle_cores(1) == 0) {
    left();
    right();
    return;
  }
  // Job 0, on the caller, is the right branch; job 1 the left.
  std::exception_ptr errors[2];
  [[maybe_unused]] const std::size_t forked =
      run_jobs(errors, [&](std::size_t job) {
        if (job == 0) {
          right();
          return;
        }
        ORDO_SCOPE("partition/fork");
        left();
      });
  ORDO_COUNTER_ADD("partition.forks", static_cast<std::int64_t>(forked));
  if (errors[1]) std::rethrow_exception(errors[1]);
  if (errors[0]) std::rethrow_exception(errors[0]);
}

void parallel_for(std::size_t n, std::size_t min_work,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t most = n / std::max<std::size_t>(min_work, 1);
  const int claimed =
      most > 1 ? acquire_idle_cores(static_cast<int>(std::min<std::size_t>(
                     most - 1, std::numeric_limits<int>::max())))
               : 0;
  if (claimed == 0) {
    if (n > 0) body(0, n);
    return;
  }
  // Chunk c covers [n·c/chunks, n·(c+1)/chunks); job c runs chunk c.
  const auto chunks = static_cast<std::size_t>(claimed) + 1;
  const auto bound = [n, chunks](std::size_t c) {
    return n / chunks * c + n % chunks * c / chunks;
  };
  std::vector<std::exception_ptr> errors(chunks);
  [[maybe_unused]] const std::size_t helpers =
      run_jobs(errors, [&](std::size_t c) {
        if (c == 0) {
          body(bound(0), bound(1));
          return;
        }
        ORDO_SCOPE("parallel/for");
        body(bound(c), bound(c + 1));
      });
  ORDO_COUNTER_ADD("parallel.helpers", static_cast<std::int64_t>(helpers));
  rethrow_first(errors);
}

}  // namespace ordo::pipeline
