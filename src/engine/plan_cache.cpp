#include "engine/plan_cache.hpp"

#include "obs/metrics.hpp"

namespace ordo::engine {
namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (8 * byte)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t matrix_fingerprint(const CsrMatrix& a) {
  // The O(rows) row_ptr walk is memoized on the matrix's shared arrays, so
  // repeat lookups (and lookups through copies) are O(1). The dimensions
  // are mixed in on top so equal row structures with different logical
  // shapes stay distinct.
  std::uint64_t h = a.row_structure_hash();
  h = fnv1a_u64(h, static_cast<std::uint64_t>(a.num_rows()));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(a.num_cols()));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(a.num_nonzeros()));
  return h;
}

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const Plan> PlanCache::get(const CsrMatrix& a,
                                           const std::string& kernel_id,
                                           int threads) {
  // The fingerprint is pure and O(rows); compute it outside the lock.
  Key key{matrix_fingerprint(a), threads, kernel_id};

  MutexLock lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    ORDO_COUNTER_ADD("engine.plan_cache.hits", 1);
    return it->second->second;
  }

  ++stats_.misses;
  ORDO_COUNTER_ADD("engine.plan_cache.misses", 1);
  // Preparing under the lock keeps concurrent workers from preparing the
  // same plan twice; preparation is microseconds against the milliseconds
  // of model evaluation it amortises.
  auto plan =
      std::make_shared<const Plan>(engine::prepare(a, kernel_id, threads));
  lru_.emplace_front(key, plan);
  index_.emplace(std::move(key), lru_.begin());
  if (index_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
    ORDO_COUNTER_ADD("engine.plan_cache.evictions", 1);
  }
  ORDO_GAUGE_SET("engine.plan_cache.size",
                 static_cast<std::int64_t>(index_.size()));
  return plan;
}

std::size_t PlanCache::size() const {
  MutexLock lock(mutex_);
  return index_.size();
}

void PlanCache::clear() {
  MutexLock lock(mutex_);
  lru_.clear();
  index_.clear();
  ORDO_GAUGE_SET("engine.plan_cache.size", 0);
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const Plan> prepare_plan(const CsrMatrix& a,
                                         const std::string& kernel_id,
                                         int threads) {
  return plan_cache().get(a, kernel_id, threads);
}

std::shared_ptr<const Plan> prepare_plan(const CsrMatrix& a,
                                         const SpmvKernel& kernel,
                                         int threads) {
  return plan_cache().get(a, kernel.id(), threads);
}

}  // namespace ordo::engine
