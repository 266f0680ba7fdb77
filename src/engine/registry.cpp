#include "engine/registry.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "check/invariants.hpp"
#include "core/thread_safety.hpp"
#include "obs/metrics.hpp"
#include "obs/status/status.hpp"

namespace ordo {

const SpmvKernel SpmvKernel::k1D{"csr_1d"};
const SpmvKernel SpmvKernel::k2D{"csr_2d"};

std::string spmv_kernel_name(const SpmvKernel& kernel) {
  if (const engine::KernelDesc* desc = engine::find_kernel(kernel.id())) {
    return desc->display_name;
  }
  return kernel.id();
}

namespace engine {
namespace {

// Mutex and map live in one struct so the guarded_by relation is
// expressible; the function-local static keeps the lazy-init order the
// KernelRegistrar statics rely on.
struct Registry {
  Mutex mutex;
  // std::map: node-based, so KernelDesc references handed out by kernel() /
  // find_kernel() stay valid as later registrations land.
  std::map<std::string, KernelDesc> map ORDO_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry r;
  return r;
}

// check/ sits below engine/ in the layering, so the plan validator speaks
// its own partition-kind enum; translate at the seam.
[[maybe_unused]] check::ThreadPartitionKind to_check_kind(
    RowAssignment assignment) {
  switch (assignment) {
    case RowAssignment::kNnzSplit:
      return check::ThreadPartitionKind::kNnzSplit;
    case RowAssignment::kMergePath:
      return check::ThreadPartitionKind::kMergePath;
    case RowAssignment::kRowBlocks:
      break;
  }
  return check::ThreadPartitionKind::kRowBlocks;
}

// register_kernel() deliberately does NOT ensure builtins: the builtin hook
// itself calls register_kernel(), and external KernelRegistrar statics may
// run before any accessor. Only the lookup accessors force the builtins in,
// exactly once.
void ensure_builtins() {
  static const bool once = [] {
    register_builtin_kernels();
    return true;
  }();
  (void)once;
}

}  // namespace

void register_kernel(KernelDesc desc) {
  require(!desc.id.empty(), "register_kernel: empty kernel id");
  require(desc.prepare != nullptr && desc.execute != nullptr,
          "register_kernel: kernel '" + desc.id +
              "' must provide both prepare and execute");
  if (desc.display_name.empty()) desc.display_name = desc.id;
  Registry& r = registry();
  MutexLock lock(r.mutex);
  const bool inserted = r.map.emplace(desc.id, std::move(desc)).second;
  require(inserted, "register_kernel: duplicate kernel id '" + desc.id + "'");
  ORDO_COUNTER_ADD("engine.kernels.registered", 1);
}

const KernelDesc* find_kernel(const std::string& id) {
  ensure_builtins();
  Registry& r = registry();
  MutexLock lock(r.mutex);
  const auto it = r.map.find(id);
  return it == r.map.end() ? nullptr : &it->second;
}

const KernelDesc& kernel(const std::string& id) {
  if (const KernelDesc* desc = find_kernel(id)) return *desc;
  std::ostringstream message;
  message << "engine: unknown kernel id '" << id << "' (registered:";
  for (const std::string& known : kernel_ids()) message << ' ' << known;
  message << ')';
  throw invalid_argument_error(message.str());
}

std::vector<std::string> kernel_ids() {
  ensure_builtins();
  Registry& r = registry();
  MutexLock lock(r.mutex);
  std::vector<std::string> ids;
  ids.reserve(r.map.size());
  for (const auto& [id, desc] : r.map) ids.push_back(id);
  return ids;  // std::map iteration order is already sorted
}

Plan prepare(const CsrMatrix& a, const std::string& id, int threads) {
  require(threads >= 1, "engine::prepare: threads must be >= 1");
  const KernelDesc& desc = kernel(id);
  Plan plan = desc.prepare(a, threads);
  plan.kernel = desc.id;
  plan.desc = &desc;
  ORDO_COUNTER_ADD("engine.plans.prepared", 1);
  ORDO_CHECK(validate_thread_partition_raw(
      a.num_rows(), a.row_ptr(), to_check_kind(plan.partition.assignment),
      plan.partition.row_begin, plan.partition.nnz_begin,
      "engine::prepare(" + desc.id + ")"));
  return plan;
}

void execute(const Plan& plan, const CsrMatrix& a, std::span<const value_t> x,
             std::span<value_t> y) {
  // Hot path: every measured SpMV rep lands here. The descriptor cached at
  // prepare() time keeps the registry mutex out of timed regions; only
  // hand-built plans (tests) pay the lookup.
  const KernelDesc& desc =
      plan.desc != nullptr ? *plan.desc : kernel(plan.kernel);
  // Phase marker for the live status board, gated so the disabled cost
  // stays one relaxed load per launch.
  if (obs::status::consumers_active()) obs::status::set_phase("spmv");
  desc.execute(plan, a, x, y);
}

}  // namespace engine
}  // namespace ordo
