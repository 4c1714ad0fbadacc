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
#include "mgs/msg/comm.hpp"

namespace mgs::core::detail {

/// The typed half of an executor: one staging slot (input and output
/// portion) per GPU of the placement, in placement order. Every scan call
/// stages the host input into the slots, scans, and gathers the output.
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

  /// Return every slot's leases to the context's pool.
  virtual void release() = 0;
  /// Lease slot `i` (input and output, `elems` each) on `device`,
  /// replacing what it held; `i` may be one past the last slot.
  virtual void lease(ScanContext& ctx, std::size_t i, int device,
                     std::int64_t elems) = 0;

  /// Scan-SP on `device` over slot 0.
  virtual RunResult scan_sp(const Call& c, int device) = 0;
  /// Scan-MPS over the first gpus.size() slots: resumable from `ck`, or
  /// Scan-MPS-direct when `ck` is null. `stage_in` = false skips the host
  /// scatter (a resume continues on already-staged slots).
  virtual RunResult scan_mps(const Call& c, const std::vector<int>& gpus,
                             MpsProgress* ck, bool stage_in) = 0;
  /// Scan-MP-PC: the slots hold the groups' GPUs in group order.
  virtual RunResult scan_mppc(const Call& c, const MppcPartition& part) = 0;
  /// Multi-node Scan-MPS: slot r is rank r.
  virtual RunResult scan_multinode(const Call& c,
                                   msg::Communicator& comm) = 0;

  /// A fresh Scan-MPS checkpoint over this cell's buffers.
  virtual std::unique_ptr<MpsProgress> checkpoint() const = 0;
  /// Scan-MPS resume: move portion `i` of `w` to `device` -- re-lease its
  /// slot, refill its input from the host, and, when the checkpoint is
  /// live, re-lease its `aux_elems`-sized reduction and prefix arrays.
  virtual void move_portion(ScanContext& ctx, MpsProgress& ck,
                            ConstTypedSpan in, int i, int device,
                            std::int64_t n, std::int64_t g, int w,
                            std::int64_t aux_elems) = 0;
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
