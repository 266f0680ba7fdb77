// Fork/join on cores nothing else uses: the partitioners' recursions
// (fork_join) and the row loops that build and permute CSR arrays
// (parallel_for).
//
// A process-wide budget counts the threads running ordo work: the process's
// own thread (always), each TaskPool worker while it runs a task, and each
// fork or parallel_for helper from its start until it is joined. A core is
// idle when that count is below the CPUs in the affinity mask
// (obs::affinity_cpu_count). fork_join runs its left branch on a new helper
// thread only when a core is idle and the branch is at least
// kMinForkVertices; otherwise both branches run inline, in order, as serial
// code would. parallel_for splits a loop into one contiguous chunk per
// claimed core plus one for the caller, each at least its grain. So a
// `--jobs 4` sweep on 4 CPUs forks only at its tail, when workers run out of
// tasks, and `taskset -c 0` never forks.
//
// Callers keep their results independent of where a branch or chunk ran:
// each reads only its own inputs and writes a disjoint part of the output
// (see DESIGN §20 and §21), so the result bytes are the same at any budget.
//
// Observability: `partition.forks` (counter, branches run on a helper) and
// `parallel.helpers` (counter, parallel_for chunks run on a helper); each
// fork helper opens a `partition/fork` span and each parallel_for helper a
// `parallel/for` span, so the spans a helper opens nest under a named root
// on its trace row.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>

namespace ordo::pipeline {

/// Smallest branch (in vertices) worth a helper thread; see DESIGN §20 for
/// the measurement behind it.
inline constexpr std::size_t kMinForkVertices = 128;

/// Grains of parallel_for's row loops: the fewest rows, or nonzeros, worth
/// a helper thread. See DESIGN §21 for the measurement behind them.
inline constexpr std::size_t kMinParallelRows = std::size_t{1} << 16;
inline constexpr std::size_t kMinParallelNonzeros = std::size_t{1} << 18;

/// Claims up to `want` idle cores from the process-wide budget and returns
/// how many it claimed (0 when none is idle). Pair with release_cores.
int acquire_idle_cores(int want);

/// Returns `count` cores claimed with acquire_idle_cores.
void release_cores(int count);

/// Counts the calling thread as running ordo work for the guard's lifetime,
/// whether or not a core was idle. TaskPool workers hold one per task.
class BusyThread {
 public:
  BusyThread();
  ~BusyThread();
  BusyThread(const BusyThread&) = delete;
  BusyThread& operator=(const BusyThread&) = delete;
};

/// Runs `left` and `right` and returns once both have finished. `left` runs
/// on a helper thread when `left_vertices` >= kMinForkVertices and a core is
/// idle; else `left` then `right` run inline. An exception from either
/// branch is rethrown here after both finished (left's first, as the serial
/// order would), never std::terminate.
void fork_join(std::size_t left_vertices, const std::function<void()>& left,
               const std::function<void()>& right);

/// fork_join for a recursion that threads per-thread scratch through its
/// calls: each branch is called with `scratch`, except a left branch that
/// runs on a helper, which gets a fresh Scratch of its own because the
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
/// cores, runs one chunk on each and the first chunk on the caller; with no
/// core claimed, body(0, n) runs inline. An exception from any chunk is
/// rethrown here after all finished (the first chunk's in chunk order).
void parallel_for(std::size_t n, std::size_t min_work,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace ordo::pipeline
