#include "pipeline/fork_join.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>

#include "obs/obs.hpp"

namespace ordo::pipeline {
namespace {

// Threads running ordo work; the process's own thread counts from the start.
std::atomic<int> g_busy{1};

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

}  // namespace ordo::pipeline
