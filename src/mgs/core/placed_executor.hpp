#pragma once
/// \file placed_executor.hpp
/// The erasure boundary of the proposal executors. The proposals differ
/// only in placement, and the element type matters only inside the
/// kernels, so the type is erased below placement: DataPath is the typed
/// half (executor_impl.hpp), everything else is type-free and compiled
/// once in placed_executor.cpp.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mgs/core/executor.hpp"
#include "mgs/core/executor_registry.hpp"
#include "mgs/core/scan_mppc.hpp"

namespace mgs::core::detail {

/// The typed half of an executor. Every scan call borrows the caller's
/// spans where they lie: portion d of each problem is viewed as memory of
/// the d-th GPU of the placement with the caller's row pitch N, so the
/// kernels read `in` and write `out` directly, with no staging
/// copy in either direction. Device memory for those portions is
/// reserved, not allocated, by the type-free executor at prepare().
class DataPath {
 public:
  /// One scan invocation: where it runs and on what.
  struct Call {
    ScanContext& ctx;
    const ScanPlan& plan;
    ConstTypedSpan in;
    TypedSpan out;
    std::int64_t n;
    std::int64_t g;
    ScanKind kind;
  };

  DataPath(DType dtype, OpTag op, bool segmented, std::size_t elem_bytes)
      : dtype(dtype), op(op), segmented(segmented), elem_bytes(elem_bytes) {}
  DataPath(const DataPath&) = delete;
  DataPath& operator=(const DataPath&) = delete;
  virtual ~DataPath() = default;

  const DType dtype;
  const OpTag op;
  const bool segmented;
  const std::size_t elem_bytes;

  /// Copy `in` into this path's host snapshot (reused across calls) and
  /// return the copy: a run whose `out` overlaps its `in` reads from it,
  /// so a restart after partial output still sees the original input.
  virtual ConstTypedSpan snapshot(ConstTypedSpan in) = 0;

  /// Scan-SP on `device`.
  virtual RunResult scan_sp(const Call& c, int device) = 0;
  /// Scan-MPS, portion d on gpus[d], its cells moving by `gather` (under
  /// MPI, rank d on gpus[d]); the progress a resume continues from, and
  /// the counters of every attempt, live in `ck`.
  virtual RunResult scan_mps(const Call& c, const std::vector<int>& gpus,
                             MpsGather gather, MpsProgress& ck) = 0;
  /// Scan-MP-PC: group k scans its problems over its GPUs, the groups one
  /// after another through `ck`.
  virtual RunResult scan_mppc(const Call& c, const MppcPartition& part,
                              MpsProgress& ck) = 0;

  /// A fresh Scan-MPS checkpoint over this cell's buffers.
  virtual std::unique_ptr<MpsProgress> checkpoint() const = 0;
  /// Scan-MPS resume: portion `i` moved to `device`; when the checkpoint
  /// is live, re-lease its `aux_elems`-sized reduction and prefix arrays
  /// there. (The portion's rows are re-borrowed by the next attempt.)
  virtual void move_portion(ScanContext& ctx, MpsProgress& ck, int i,
                            int device, std::int64_t aux_elems) = 0;
  /// Scan-MPS resume after a master death: re-lease the master-resident
  /// checkpoint arrays (combined array, carry) on the new master.
  virtual void move_master(ScanContext& ctx, MpsProgress& ck, int device,
                           std::int64_t aux_all_elems, std::int64_t g) = 0;
};

/// The proposal called `name` in the registry over `path`'s cell. Throws
/// util::Error for an unknown name.
std::unique_ptr<ScanExecutor> make_placed_executor(
    const std::string& name, ScanContext& ctx, const ExecutorParams& params,
    std::unique_ptr<DataPath> path);

}  // namespace mgs::core::detail
