#pragma once
/// \file scan_sp.hpp
/// Scan-SP: the paper's single-GPU proposal. G problems of N elements are
/// solved in one invocation with the three-kernel pipeline (or a single
/// direct kernel when a problem fits in one chunk).

#include <span>

#include "mgs/core/kernels.hpp"
#include "mgs/core/plan.hpp"
#include "mgs/core/rows.hpp"
#include "mgs/core/workspace.hpp"
#include "mgs/obs/span.hpp"

namespace mgs::core {

/// Run the batch scan on one device over the caller's spans, borrowed in
/// place as memory of `dev` (placement is untimed: the paper's Scan-SP
/// takes the G problems as already GPU-resident). `in` and `out` hold G
/// problems of N contiguous elements each (problem g at offset g*N);
/// `out` is either `in` itself or shares none of its memory (rows.hpp).
/// The device clock advances by the simulated duration; the returned
/// RunResult reports it along with the per-stage breakdown. When `ws` is
/// given, the auxiliary array is leased from it instead of allocated.
template <typename T, typename Op = Plus<T>>
RunResult scan_sp(simt::Device& dev, std::span<const T> in, std::span<T> out,
                  std::int64_t n, std::int64_t g, const ScanPlan& plan,
                  ScanKind kind, Op op = {}, WorkspacePool* ws = nullptr) {
  plan.validate();
  MGS_REQUIRE(n > 0 && g > 0, "scan_sp: N and G must be positive");
  detail::require_rows<T>(in, out, n * g);
  // Read-only through `in` by contract: the kernels only ever store
  // through `out`.
  const auto src =
      dev.borrow(std::span<T>(const_cast<T*>(in.data()), in.size()));
  auto dst = dev.borrow(out);

  const BatchLayout lay = make_layout(n, g, plan.s13);
  RunResult result;
  result.payload_bytes = 2ull * static_cast<std::uint64_t>(n) * g * sizeof(T);
  const double start = dev.clock().now();

  if (lay.bx == 1) {
    auto stage3 = obs::open_stage("Stage3", start, dev.id());
    const auto t = launch_direct_scan(dev, src, dst, lay, plan.s13, kind, op);
    stage3.close(dev.clock().now());
    result.breakdown.add("Stage3", t.seconds);
  } else {
    auto aux = acquire_workspace<T>(ws, dev, lay.aux_elems());
    auto stage1 = obs::open_stage("Stage1", dev.clock().now(), dev.id());
    const auto t1 =
        launch_chunk_reduce(dev, src, aux.buffer(), lay, plan.s13, op);
    stage1.close(dev.clock().now());
    result.breakdown.add("Stage1", t1.seconds);
    auto stage2 = obs::open_stage("Stage2", dev.clock().now(), dev.id());
    const auto t2 =
        launch_intermediate_scan_slice(dev, aux.buffer(), lay.bx, 0, lay.g, 0,
                                       lay.bx, nullptr, plan.s2, op);
    stage2.close(dev.clock().now());
    result.breakdown.add("Stage2", t2.seconds);
    auto stage3 = obs::open_stage("Stage3", dev.clock().now(), dev.id());
    const auto t3 =
        launch_scan_add(dev, src, dst, aux.buffer(), lay, plan.s13, kind, op);
    stage3.close(dev.clock().now());
    result.breakdown.add("Stage3", t3.seconds);
  }

  result.seconds = dev.clock().now() - start;
  return result;
}

}  // namespace mgs::core
