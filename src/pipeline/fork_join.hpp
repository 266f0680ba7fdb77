// The process's one scheduler: pool worker threads that run the study
// sweep's `--jobs` loops and the SpMV kernels' launches (run_tasks), the
// partitioners' recursions (fork_join) and the row loops that build and
// permute CSR arrays (parallel_for). All three hand jobs to free workers,
// run the caller's own share, then wait for the rest.
//
// A process-wide budget counts the threads running ordo work: the process's
// own thread (always) and each worker while it runs a job. A core is idle
// when that count is below the CPUs in the affinity mask
// (obs::affinity_cpu_count). fork_join runs its left branch on a worker
// only when a core is idle and the branch is at least kMinForkVertices;
// otherwise both branches run inline, in order, as serial code would.
// parallel_for splits a loop into one contiguous chunk per claimed core
// plus one for the caller, each at least its grain. run_tasks claims its
// threads' cores idle or not, so a `--jobs 4` sweep on 4 CPUs forks only at
// its tail, when its loops run out of tasks, and `taskset -c 0` never forks.
//
// A claimed core always gets a worker: when none is free the pool starts
// one, so it grows only to the peak concurrency reached, at most
// max(jobs, affinity CPUs) - 1 threads. A worker whose job ended spins up
// to 1 ms for its next one, but only while the busy threads leave a core
// idle for it, and a caller as long for its jobs while the busy threads
// fit on the affinity CPUs; both yield the core between checks, then
// sleep on a condition variable. So back-to-back kernel launches hand off
// in about 2 us, `taskset -c 0` or an oversubscribed `--jobs` never
// spins, and another process's thread waiting for a core gets it. A
// worker never starts a job inside another and a caller only waits, so no
// thread-local state (status slot, trace depth) crosses from one job to
// another. The pool starts at the first handoff and lives as long as the
// process; a child made by fork() starts its own.
//
// Callers keep their results independent of where a branch or chunk ran:
// each reads only its own inputs and writes a disjoint part of the output
// (see DESIGN §20 and §21), so the result bytes are the same at any budget.
//
// Observability: `partition.forks` (counter, branches run on a worker) and
// `parallel.helpers` (counter, parallel_for chunks run on a worker); each
// forked branch opens a `partition/fork` span and each parallel_for chunk
// on a worker a `parallel/for` span, so the spans a worker opens nest under
// a named root on its trace row.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>

namespace ordo::pipeline {

/// Smallest branch (in vertices) worth a worker; see DESIGN §20 for the
/// measurement behind it.
inline constexpr std::size_t kMinForkVertices = 128;

/// Grains of parallel_for's row loops: the fewest rows, or nonzeros, worth
/// a worker. See DESIGN §21 for the measurement behind them.
inline constexpr std::size_t kMinParallelRows = std::size_t{1} << 16;
inline constexpr std::size_t kMinParallelNonzeros = std::size_t{1} << 18;

/// Claims up to `want` idle cores from the process-wide budget and returns
/// how many it claimed (0 when none is idle). Pair with release_cores.
int acquire_idle_cores(int want);

/// Returns `count` cores claimed with acquire_idle_cores.
void release_cores(int count);

/// Runs task(0), ..., task(count - 1) on min(threads, count) threads, the
/// caller and pool workers, and returns once all have finished. Each
/// thread takes the lowest task not yet taken as soon as it is free; with
/// one thread the tasks run inline, in order. The workers count as busy
/// whether or not a core is idle. An exception from a task ends its
/// thread's loop and is rethrown here after all finished.
void run_tasks(std::size_t count, int threads,
               const std::function<void(std::size_t)>& task);

/// Runs `left` and `right` and returns once both have finished. `left` runs
/// on a worker when `left_vertices` >= kMinForkVertices and a core is
/// idle; else `left` then `right` run inline. An exception from either
/// branch is rethrown here after both finished (left's first, as the serial
/// order would), never std::terminate.
void fork_join(std::size_t left_vertices, const std::function<void()>& left,
               const std::function<void()>& right);

/// fork_join for a recursion that threads per-thread scratch through its
/// calls: each branch is called with `scratch`, except a left branch that
/// runs on a worker, which gets a fresh Scratch of its own because the
/// right branch uses `scratch` meanwhile. No allocation when nothing forks.
template <class Scratch, class Left, class Right>
void fork_join_with(std::size_t left_vertices, Scratch& scratch,
                    const Left& left, const Right& right) {
  struct Branches {
    Scratch* scratch;
    const Left* left;
    const Right* right;
    std::thread::id caller;
  };
  const Branches branches{&scratch, &left, &right, std::this_thread::get_id()};
  // One pointer per closure, so std::function keeps them inline.
  const Branches* const b = &branches;
  fork_join(
      left_vertices,
      [b] {
        if (std::this_thread::get_id() == b->caller) {
          (*b->left)(*b->scratch);
          return;
        }
        Scratch own;
        (*b->left)(own);
      },
      [b] { (*b->right)(*b->scratch); });
}

/// Runs body(begin, end) over contiguous chunks that cover [0, n) in order
/// and returns once all have finished. Claims up to n / min_work - 1 idle
/// cores, runs one chunk on a worker for each and the first chunk on the
/// caller; with no core claimed, body(0, n) runs inline. An exception from
/// any chunk is rethrown here after all finished (the first chunk's in
/// chunk order).
void parallel_for(std::size_t n, std::size_t min_work,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace ordo::pipeline
