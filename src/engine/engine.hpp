// ordo::engine — umbrella header.
//
// The engine is the execution layer between the raw kernels in src/spmv/
// and every consumer above them (experiment, perfmodel, pipeline, benches,
// solvers): a registry of kernel descriptors (registry.hpp), prepared plans
// with a uniform per-thread partition view (plan.hpp), and an LRU plan
// cache (plan_cache.hpp) so partitions are computed once per matrix
// structure instead of once per call.
//
// Typical use:
//
//   const auto plan = engine::prepare_plan(a, "csr_2d", threads);
//   engine::spmv(*plan, a, x, y);   // repeat; partition already amortised
//
// Telemetry: the cache counts engine.plan_cache.{hits,misses,evictions}
// and sets the engine.plan_cache.size gauge in the metrics registry, which
// is where the live heartbeat reads them (its "metrics" section).
#pragma once

#include "engine/plan.hpp"        // IWYU pragma: export
#include "engine/plan_cache.hpp"  // IWYU pragma: export
#include "engine/registry.hpp"    // IWYU pragma: export
