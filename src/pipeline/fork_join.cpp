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
#include "obs/stopwatch.hpp"

namespace ordo::pipeline {
namespace {

// Threads running ordo work; the process's own thread counts from the start.
std::atomic<int> g_busy{1};

// How long a worker whose job ended spins for its next one before it parks,
// and a caller spins for its jobs to finish before it sleeps. An empty
// 4-way run_tasks costs about 2 us with spinning workers and 15-20 us with
// parked ones; 1 ms outlasts the uneven chunks of the kernels' launches
// (DESIGN §20).
constexpr std::int64_t kSpinMicros = 1000;

int budget_cpus() {
  static const int cpus = obs::affinity_cpu_count();
  return cpus;
}

// Whether the threads running ordo work, plus `uncounted` threads the
// budget does not count (a free worker), fit on the affinity CPUs. A thread
// spins only while they do: never under `taskset -c 0` with a worker
// running, nor under an oversubscribed `--jobs`.
bool budget_fits(int uncounted) {
  // Acquire: pairs with hand()'s release claim, so a worker that sees the
  // core claimed for its job then sees the job (spin_until).
  return g_busy.load(std::memory_order_acquire) + uncounted <= budget_cpus();
}

// Spins until done() or until kSpinMicros have passed or
// budget_fits(uncounted) fails, and returns done().
template <class Done>
bool spin_until(const Done& done, int uncounted) {
  const obs::Stopwatch spun;
  while (!done()) {
    if (!budget_fits(uncounted) || spun.micros() >= kSpinMicros) return done();
    // A yield, not a pause: another process's thread waiting for this core
    // gets it (DESIGN §20).
    std::this_thread::yield();
  }
  return true;
}

// The jobs one run_jobs call handed to workers. It lives on the caller's
// stack, so a handoff allocates nothing.
struct Batch {
  const std::function<void(std::size_t)>* job = nullptr;
  std::span<std::exception_ptr> errors;
  // Jobs handed and not yet finished, plus kCallerAsleep once the caller
  // sleeps: the worker that finishes the last job then wakes it.
  std::atomic<std::size_t> running{0};
};

constexpr std::size_t kCallerAsleep =
    std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);

// A pool thread. hand() writes `batch` and `index` under the pool's mutex
// and then publishes them with a release store of kHanded; the worker reads
// them once it has taken the job (kHanded to kRunning).
struct Worker {
  // kRunning: on a job. kSpinning, kParked: free, spinning or asleep on
  // `wake`. kHanded: given a job it has not taken yet; the worker takes it,
  // or the caller takes it back (to kParked) and runs it itself.
  enum State : std::uint64_t { kRunning, kSpinning, kParked, kHanded };
  static State state_of(std::uint64_t word) {
    return static_cast<State>(word & 3);
  }
  Batch* batch = nullptr;
  std::size_t index = 0;
  std::uint64_t handoffs = 0;  ///< under the mutex
  // The State in the low two bits; a kHanded word also holds the number of
  // the handoff above them, so a caller takes back its own handoff and
  // never a later one. Leaves kRunning only on the worker, enters kHanded
  // only in hand(), and leaves kSpinning only under the pool's mutex.
  std::atomic<std::uint64_t> word{kRunning};
  std::condition_variable wake;  ///< a parked worker waits for kHanded
};

// A handoff run_jobs may take back: the worker and the word hand() stored.
struct Handoff {
  Worker* worker = nullptr;
  std::uint64_t word = 0;
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

  /// Hands jobs 1, ..., jobs - 1 of `batch`, each to the first free
  /// worker or to a new one when none is free, and returns the first job
  /// not handed: `jobs`, or less when no thread could be started. When
  /// `taken` is not empty (run_tasks), records in taken[i] the free worker
  /// handed job i, and claims each job's core, idle or not, as it hands it.
  std::size_t hand(Batch& batch, std::size_t jobs,
                   std::span<Handoff> taken);

  /// Returns once every job handed from `batch` has finished, spinning
  /// first (spin_until).
  void wait(Batch& batch);

 private:
  explicit Pool(pid_t pid) : pid_(pid) {}
  void work(Worker& self);

  // ordo-analyze: allow(guard-coverage) set in the constructor and never
  // written again; current() reads it to tell a forked child's pool apart.
  const pid_t pid_;
  Mutex mutex_;
  // Every worker, in start order. Taking the first free one keeps jobs,
  // and the largest (the top fork of a recursion) most of all, on the same
  // few workers: each worker's malloc arena keeps its high-water mark, and
  // spreading the large jobs over every worker raised spmv_cache's peak
  // RSS from 134 to 163 MB.
  std::vector<Worker*> workers_ ORDO_GUARDED_BY(mutex_);
  // Sleeping callers wait here, under mutex_. One for all of them, so a
  // wake never touches a Batch that may be gone.
  std::condition_variable finished_;
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

std::size_t Pool::hand(Batch& batch, std::size_t jobs,
                       std::span<Handoff> taken) {
  MutexLock lock(mutex_);
  std::size_t next = 1;
  for (auto free = workers_.begin(); next < jobs; ++next) {
    free = std::find_if(free, workers_.end(), [](const Worker* w) {
      // Acquire: pairs with the worker's release store of its new state,
      // so its reads of batch and index happen before the writes below.
      const auto state =
          Worker::state_of(w->word.load(std::memory_order_acquire));
      return state == Worker::kSpinning || state == Worker::kParked;
    });
    // Relaxed: the caller reads `running` only through the acquire
    // operations in wait(), after this critical section.
    batch.running.fetch_add(1, std::memory_order_relaxed);
    if (free == workers_.end()) {  // none free: a new worker runs the job
      Worker* fresh = nullptr;
      try {
        // Relaxed: no worker waits on this claim.
        if (!taken.empty()) g_busy.fetch_add(1, std::memory_order_relaxed);
        workers_.reserve(workers_.size() + 1);
        fresh = new Worker;
        fresh->batch = &batch;
        fresh->index = next;
        std::thread([this, fresh] { work(*fresh); }).detach();
      } catch (const std::exception&) {
        delete fresh;
        if (!taken.empty()) release_cores(1);
        // Relaxed: as above; the job was not handed.
        batch.running.fetch_sub(1, std::memory_order_relaxed);
        break;  // no thread to be had: the caller runs the rest
      }
      workers_.push_back(fresh);  // reserved above, so it cannot throw
      free = workers_.end();
      continue;
    }
    Worker* worker = *free++;
    worker->batch = &batch;
    worker->index = next;
    const std::uint64_t word = ++worker->handoffs << 2 | Worker::kHanded;
    if (!taken.empty()) taken[next] = {worker, word};
    // Relaxed: read under the mutex, which orders every change from
    // kSpinning or kParked.
    const bool parked = Worker::state_of(worker->word.load(
                            std::memory_order_relaxed)) == Worker::kParked;
    // Release: publishes batch and index to the worker's acquire CAS.
    worker->word.store(word, std::memory_order_release);
    // Claimed after the store, so a spinning worker that sees its core
    // claimed sees its job too, rather than parking for want of a core.
    // Release: pairs with budget_fits(). The worker may finish and give
    // the core back first: the count then reads one low for a moment.
    if (!taken.empty()) g_busy.fetch_add(1, std::memory_order_release);
    if (parked) worker->wake.notify_one();  // a spinning worker sees it
  }
  return next;
}

void Pool::wait(Batch& batch) {
  // Acquire: pairs with each worker's release as its job ends, so the
  // jobs' writes happen before the caller's reads.
  const auto done = [&batch] {
    return batch.running.load(std::memory_order_acquire) == 0;
  };
  if (spin_until(done, 0)) return;  // the caller is counted
  MutexLock lock(mutex_);
  // acq_rel: as above for a finished batch; the flag tells the worker that
  // finishes the last job to wake this thread.
  if (batch.running.fetch_or(kCallerAsleep, std::memory_order_acq_rel) == 0) {
    return;
  }
  // An explicit wait loop (not the predicate overload), as in work(), keeps
  // the reads lexically under the lock.
  // Acquire: as above.
  while (batch.running.load(std::memory_order_acquire) != kCallerAsleep) {
    finished_.wait(lock.native());
  }
}

void Pool::work(Worker& self) {
  for (;;) {
    // Read without the mutex: see Worker.
    Batch& batch = *self.batch;
    run_job(batch, self.index);
    // A worker whose job ended spins for its next one, so a handoff soon
    // after skips the condition variable's wake, but only while its core is
    // left idle in the budget: g_busy counts it here and, once its core is
    // back, no longer does.
    bool spin = budget_fits(0);
    // This worker is free before its core comes back, so whoever claims the
    // core finds a worker for it, and before its caller wakes, so the
    // caller's next handoff finds it free. Release: see hand().
    self.word.store(spin ? Worker::kSpinning : Worker::kParked,
                    std::memory_order_release);
    release_cores(1);
    // acq_rel: release publishes the job's writes to the caller.
    if (batch.running.fetch_sub(1, std::memory_order_acq_rel) ==
        (kCallerAsleep | 1)) {
      // The last job of a sleeping caller; `batch` may be gone from here
      // on. Taking the lock orders the wake after the caller began to wait.
      { MutexLock lock(mutex_); }
      finished_.notify_all();
    }
    // Acquire: pairs with hand()'s release store of kHanded.
    const auto handed = [&self] {
      return Worker::state_of(self.word.load(std::memory_order_acquire)) ==
             Worker::kHanded;
    };
    for (;;) {
      if (!(spin && spin_until(handed, 1))) {
        MutexLock lock(mutex_);
        // Relaxed: under the mutex, which orders every change from
        // kSpinning.
        if (Worker::state_of(self.word.load(std::memory_order_relaxed)) ==
            Worker::kSpinning) {
          // Relaxed: as above; the spin ended with no job, so it parks.
          self.word.store(Worker::kParked, std::memory_order_relaxed);
        }
        while (!handed()) self.wake.wait(lock.native());
      }
      // Acquire, here and in the exchange: as above. The exchange fails
      // when the caller took the job back.
      std::uint64_t seen = self.word.load(std::memory_order_acquire);
      if (Worker::state_of(seen) == Worker::kHanded &&
          self.word.compare_exchange_strong(seen, Worker::kRunning,
                                            std::memory_order_acquire)) {
        break;
      }
      spin = false;  // taken back: park until the next handoff
    }
  }
}

// Runs job(0) on the calling thread and job(1), ..., job(n - 1), where
// n = errors.size() >= 2, each on a pool worker, and returns once all have
// finished: the one primitive under run_tasks, fork_join and parallel_for.
// Each worker gives its job's core back when the job ends. Without
// `take_back` (fork_join, parallel_for) the caller has claimed n - 1 cores,
// and a job no thread could be started for gives its core back and runs on
// the caller. With `take_back` (run_tasks) hand() claims the cores, and the
// caller also runs, after job(0), every handed job no worker has taken yet:
// on a host whose cores other processes hold, a worker that gets no core
// then delays no one. An exception escaping job(i) lands in errors[i].
// Returns how many jobs ran on a worker.
std::size_t run_jobs(std::span<std::exception_ptr> errors,
                     const std::function<void(std::size_t)>& job,
                     bool take_back) {
  Batch batch;
  batch.job = &job;
  batch.errors = errors;
  std::vector<Handoff> taken(take_back ? errors.size() : 0);
  Pool& pool = Pool::current();
  const std::size_t handed = pool.hand(batch, errors.size(), taken);
  if (!take_back) release_cores(static_cast<int>(errors.size() - handed));
  run_job(batch, 0);
  for (std::size_t i = handed; i < errors.size(); ++i) run_job(batch, i);
  std::size_t on_workers = handed - 1;
  for (std::size_t i = 1; i < handed && !taken.empty(); ++i) {
    if (taken[i].worker == nullptr) continue;
    std::uint64_t expected = taken[i].word;
    // Relaxed: the caller wrote the job itself, and the worker reads
    // nothing of it once this succeeds.
    if (!taken[i].worker->word.compare_exchange_strong(
            expected, Worker::kParked, std::memory_order_relaxed)) {
      continue;
    }
    run_job(batch, i);
    release_cores(1);
    // Relaxed: the caller's own count, read by the caller in wait().
    batch.running.fetch_sub(1, std::memory_order_relaxed);
    --on_workers;
  }
  pool.wait(batch);
  return on_workers;
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
  // and writes is published by the pool's handoff and join.
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
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> cursor{0};
  run_jobs(errors, [&](std::size_t) {
    // Relaxed: the cursor only hands out distinct indices; what a task
    // writes reaches the caller through the pool's join.
    for (std::size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
         k < count; k = cursor.fetch_add(1, std::memory_order_relaxed)) {
      task(k);
    }
  }, true);
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
      run_jobs(
          errors,
          [&](std::size_t job) {
            if (job == 0) {
              right();
              return;
            }
            ORDO_SCOPE("partition/fork");
            left();
          },
          false);
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
      run_jobs(
          errors,
          [&](std::size_t c) {
            if (c == 0) {
              body(bound(0), bound(1));
              return;
            }
            ORDO_SCOPE("parallel/for");
            body(bound(c), bound(c + 1));
          },
          false);
  ORDO_COUNTER_ADD("parallel.helpers", static_cast<std::int64_t>(helpers));
  rethrow_first(errors);
}

}  // namespace ordo::pipeline
