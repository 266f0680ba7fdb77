// ordo::engine — the LRU plan cache.
//
// The study evaluates every (matrix, ordering) under eight machine profiles
// whose core counts collide (Table 2 has six distinct counts across eight
// machines), and both the experiment layer (per-thread work columns) and the
// performance model (per-thread cost loop) need the same plan. Preparing a
// partition is O(rows) to O(threads·log nnz) — cheap once, wasteful when
// repeated 16× per matrix. The cache keys plans by (matrix fingerprint,
// kernel id, threads) and hands out shared_ptr<const Plan>, so a plan
// computed for the 64-core profile is reused verbatim by the other 64-core
// profile and by every consumer in between.
//
// The fingerprint hashes the matrix dimensions and the FULL row_ptr array
// (FNV-1a). Plans are pure functions of the row structure, so this is
// exactly the information a plan depends on; sampling the row pointer was
// rejected because reorderings of regular matrices (grid Laplacians) can
// agree on every sampled entry while differing in between, and a collision
// would silently hand a plan to the wrong matrix.
//
// Hit/miss/eviction counts are exported through the internal Stats struct
// (always available; the benchmark harness reads it) and mirrored to the
// obs counters engine.plan_cache.{hits,misses,evictions} plus the gauge
// engine.plan_cache.size when observability is compiled in. The live
// heartbeat shows the cache through those instruments in its "metrics"
// section; the cache adds no section of its own.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "core/thread_safety.hpp"
#include "engine/plan.hpp"
#include "engine/registry.hpp"
#include "sparse/csr.hpp"

namespace ordo::engine {

/// FNV-1a hash of the matrix's dimensions, nonzero count and full row
/// pointer array — everything a plan depends on, and nothing it does not
/// (column indices and values never influence a partition).
std::uint64_t matrix_fingerprint(const CsrMatrix& a);

/// Thread-safe LRU cache of prepared plans.
class PlanCache {
 public:
  /// Default capacity: with --jobs 4 workers each sweeping 8 machine
  /// profiles × 2+ kernels × 7 orderings, the working set of a parallel
  /// sweep stays well under 1024 live plans, so the studied pair never
  /// thrashes; memory cost is bounded (plans are O(threads) except for the
  /// 2D/merge states, which are also O(threads)).
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit PlanCache(std::size_t capacity = kDefaultCapacity);

  /// Returns the cached plan for (a, kernel_id, threads), preparing and
  /// inserting it on a miss (evicting the least-recently-used entry when
  /// full). The returned plan is immutable and safe to use concurrently.
  std::shared_ptr<const Plan> get(const CsrMatrix& a,
                                  const std::string& kernel_id, int threads);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  void clear();

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    std::int64_t lookups() const { return hits + misses; }
    /// Hit fraction in [0, 1]; 0 before the first lookup.
    double hit_rate() const {
      return lookups() > 0 ? static_cast<double>(hits) / lookups() : 0.0;
    }
  };
  Stats stats() const;

 private:
  struct Key {
    std::uint64_t fingerprint = 0;
    int threads = 0;
    std::string kernel;
    friend bool operator<(const Key& a, const Key& b) {
      if (a.fingerprint != b.fingerprint) return a.fingerprint < b.fingerprint;
      if (a.threads != b.threads) return a.threads < b.threads;
      return a.kernel < b.kernel;
    }
  };
  using LruList = std::list<std::pair<Key, std::shared_ptr<const Plan>>>;

  mutable Mutex mutex_;
  LruList lru_ ORDO_GUARDED_BY(mutex_);  ///< front = most recently used
  std::map<Key, LruList::iterator> index_ ORDO_GUARDED_BY(mutex_);
  // ordo-analyze: allow(guard-coverage) immutable after construction;
  // capacity() reads it without the lock.
  std::size_t capacity_;
  Stats stats_ ORDO_GUARDED_BY(mutex_);
};

/// The process-wide plan cache used by prepare_plan().
PlanCache& plan_cache();

/// Cached plan lookup: the entry point the experiment layer, the
/// performance model, benches and solvers all funnel through.
std::shared_ptr<const Plan> prepare_plan(const CsrMatrix& a,
                                         const std::string& kernel_id,
                                         int threads);
std::shared_ptr<const Plan> prepare_plan(const CsrMatrix& a,
                                         const SpmvKernel& kernel,
                                         int threads);

/// Convenience alias for execute() (registry.hpp) so call sites read
/// `engine::spmv(*plan, a, x, y)`.
inline void spmv(const Plan& plan, const CsrMatrix& a,
                 std::span<const value_t> x, std::span<value_t> y) {
  execute(plan, a, x, y);
}

}  // namespace ordo::engine
