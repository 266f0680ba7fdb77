#include "pipeline/fork_join.hpp"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <system_error>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace ordo::pipeline {
namespace {

// Threads running ordo work; the process's own thread counts from the start.
std::atomic<int> g_busy{1};

// One chunk of a parallel_for; a helper reports its error through it.
struct Chunk {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::exception_ptr error;
  pthread_t thread{};
};

void run_chunk(Chunk& chunk) {
  try {
    (*chunk.body)(chunk.begin, chunk.end);
  } catch (...) {
    chunk.error = std::current_exception();
  }
}

void* run_helper(void* chunk) {
  ORDO_SCOPE("parallel/for");
  run_chunk(*static_cast<Chunk*>(chunk));
  return nullptr;
}

int budget_cpus() {
  static const int cpus = obs::affinity_cpu_count();
  return cpus;
}

}  // namespace

int acquire_idle_cores(int want) {
  const int cpus = budget_cpus();
  // Relaxed throughout: the count only rations cores; the data a branch
  // reads and writes is published by the helper thread's start and join.
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

BusyThread::BusyThread() {
  // Relaxed: the count only rations cores (see acquire_idle_cores).
  g_busy.fetch_add(1, std::memory_order_relaxed);
}

BusyThread::~BusyThread() { release_cores(1); }

void fork_join(std::size_t left_vertices, const std::function<void()>& left,
               const std::function<void()>& right) {
  std::exception_ptr left_error;
  std::thread helper;
  if (left_vertices >= kMinForkVertices && acquire_idle_cores(1) == 1) {
    try {
      helper = std::thread([&left, &left_error] {
        try {
          ORDO_SCOPE("partition/fork");
          left();
        } catch (...) {
          left_error = std::current_exception();
        }
      });
    } catch (const std::system_error&) {
      release_cores(1);  // no thread to be had: run serially after all
    }
  }
  if (!helper.joinable()) {
    left();
    right();
    return;
  }
  ORDO_COUNTER_ADD("partition.forks", 1);
  std::exception_ptr right_error;
  try {
    right();
  } catch (...) {
    right_error = std::current_exception();
  }
  helper.join();
  // The core comes back only once the helper has exited, so at most
  // affinity CPUs - 1 helpers (each with its stack and malloc arena) exist.
  release_cores(1);
  if (left_error) std::rethrow_exception(left_error);
  if (right_error) std::rethrow_exception(right_error);
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
  // Chunk c covers [n·c/chunks, n·(c+1)/chunks); helper c runs chunk c.
  const auto chunks = static_cast<std::size_t>(claimed) + 1;
  const auto bound = [n, chunks](std::size_t c) {
    return n / chunks * c + n % chunks * c / chunks;
  };
  std::vector<Chunk> work(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    work[c].body = &body;
    work[c].begin = bound(c);
    work[c].end = bound(c + 1);
  }
  std::size_t started = 0;
  // Helpers start through pthread_create, not std::thread: a std::thread
  // frees its start state on the new thread, and that first free ties the
  // thread to a malloc arena. A chunk that never allocates then claims
  // none, so the partitioners' fork helpers keep the arenas they had (with
  // std::thread here, spmv_cache's peak RSS rose from 128 to 141 MB).
  while (started + 1 < chunks &&
         ::pthread_create(&work[started + 1].thread, nullptr, run_helper,
                          &work[started + 1]) == 0) {
    ++started;
  }
  // Cores for chunks no thread took go back now; the caller runs them.
  release_cores(claimed - static_cast<int>(started));
  ORDO_COUNTER_ADD("parallel.helpers", static_cast<std::int64_t>(started));
  for (std::size_t c = 0; c < chunks; ++c) {
    if (c == 0 || c > started) run_chunk(work[c]);
  }
  for (std::size_t c = 1; c <= started; ++c) {
    ::pthread_join(work[c].thread, nullptr);
  }
  // As in fork_join: a core comes back only once its helper has exited.
  release_cores(static_cast<int>(started));
  for (const Chunk& chunk : work) {
    if (chunk.error) std::rethrow_exception(chunk.error);
  }
}

}  // namespace ordo::pipeline
