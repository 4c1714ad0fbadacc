#pragma once
/// \file scan_context.hpp
/// Amortization layer for repeated scan traffic. A ScanContext owns
/// everything a production caller wants set up once and reused per call:
///
///  * a memoized plan cache keyed by (DeviceSpec, N, G, element size,
///    GPUs-per-problem), backed by the existing Autotuner for the
///    single-GPU space and by the Premise-3/4 K maximization for
///    multi-GPU shapes (Section 4.2);
///  * a per-device WorkspacePool that reuses auxiliary buffers across
///    invocations instead of `dev.alloc` per call.
///
/// The concrete ScanExecutors (executor.hpp) draw both from the context;
/// the context also bridges Premise 4: `executor_for` runs the planner
/// and returns the proposal it selects, ready to prepare() and run().

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mgs/core/tuning.hpp"
#include "mgs/core/dtype.hpp"
#include "mgs/core/planner.hpp"
#include "mgs/core/workspace.hpp"
#include "mgs/topo/topology.hpp"

namespace mgs::core {

class ScanExecutor;

/// Plan-cache key. The device enters via its spec name (clusters are
/// homogeneous; one Autotuner per context serves every device). The
/// element size is derived from (dtype, segmented) -- there is no
/// hand-passed byte count anymore, so a mismatched size can never be
/// cached. The operator participates in the key so per-op statistics and
/// future op-specific tuning stay separable, even though today's plans
/// depend only on the element bytes.
struct PlanKey {
  std::string device;            ///< DeviceSpec::name
  std::int64_t n = 0;            ///< elements per problem (full problem)
  std::int64_t g = 1;            ///< problems in the batch
  DType dtype = DType::kI32;     ///< element type
  OpTag op = OpTag::kPlus;       ///< scan operator
  bool segmented = false;        ///< SegPair elements (value+flag, 2x bytes)
  int gpus_per_problem = 1;      ///< 1: Scan-SP space; >1: Eq. 2/3 bound

  /// Bytes per element the plan must budget for (doubled for the packed
  /// segmented representation).
  int elem_bytes() const { return dtype_bytes(dtype) * (segmented ? 2 : 1); }

  friend auto operator<=>(const PlanKey&, const PlanKey&) = default;
};

class ScanContext {
 public:
  /// The context borrows the cluster; it must outlive the context and
  /// every executor created from it.
  explicit ScanContext(topo::Cluster& cluster);

  topo::Cluster& cluster() { return *cluster_; }
  const topo::Cluster& cluster() const { return *cluster_; }
  WorkspacePool& workspace() { return pool_; }
  Autotuner& tuner() { return tuner_; }

  /// Memoized plan lookup. First call for a key derives the plan (an
  /// autotuner search for single-GPU shapes, the premise-derived
  /// K-maximizing plan for multi-GPU shapes); later calls are cache hits
  /// and never re-run the search.
  const ScanPlan& plan_for(const PlanKey& key);
  const ScanPlan& plan_for(std::int64_t n, std::int64_t g,
                           DType dtype = DType::kI32,
                           OpTag op = OpTag::kPlus, int gpus_per_problem = 1,
                           bool segmented = false);

  std::size_t plan_cache_size() const { return plans_.size(); }
  std::uint64_t plan_cache_hits() const { return hits_; }
  std::uint64_t plan_cache_misses() const { return misses_; }
  /// Entries retired by invalidate_plans over this context's lifetime
  /// (storage kept alive for stale references; see invalidate_plans).
  std::size_t plan_cache_retired() const { return retired_plans_.size(); }

  /// Drop cached plans that assume more cooperating GPUs than are still
  /// usable (called by executors when device liveness shrinks a
  /// placement). Returns the number of entries removed from the lookup.
  /// Removed entries are retired, not destroyed: their storage (and hence
  /// any `const ScanPlan&` an executor still holds from an earlier
  /// prepare) stays valid until the context is destroyed; executors
  /// re-fetch on their next prepare via the liveness epoch.
  std::size_t invalidate_plans(int max_gpus_per_problem);

  /// The cluster injector's liveness epoch (0 when no injector is
  /// attached). Executors cache this at prepare() and re-place when it
  /// moves.
  std::uint64_t fault_epoch() const;

  /// Premise 4 (Section 4.2) through the unified API: run the planner on
  /// the problem shape and return the proposal's executor, configured
  /// with the (M, W, V, Y) the planner chose.
  std::unique_ptr<ScanExecutor> executor_for(const PlannerInput& input);

 private:
  topo::Cluster* cluster_;
  Autotuner tuner_;
  WorkspacePool pool_;
  std::map<PlanKey, ScanPlan> plans_;
  /// Invalidated entries, kept alive (extracted node handles preserve the
  /// element address) so stale plan references never dangle.
  std::vector<std::map<PlanKey, ScanPlan>::node_type> retired_plans_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mgs::core
