#pragma once
/// \file easy.hpp
/// One-call convenience API: scan a host range on a simulated GPU with
/// automatically tuned parameters. Intended for downstream users who want
/// the primitive, not the machinery; the executors (executor.hpp) and the
/// proposals in scan_sp.hpp / scan_mps.hpp / scan_mppc.hpp expose full
/// control.

#include <span>
#include <vector>

#include "mgs/core/scan_context.hpp"
#include "mgs/core/scan_sp.hpp"

namespace mgs::core {

/// Result of the convenience scan: output data + the simulated run info.
template <typename T>
struct EasyScanResult {
  std::vector<T> output;
  RunResult run;
};

/// Scan `input` (a batch of `g` problems of input.size()/g contiguous
/// elements) on device 0 of the context's cluster, straight into the
/// result's output. The plan comes from the context's memoized autotuner
/// cache and the auxiliary array from its workspace pool, so repeated
/// calls through one context amortize both.
template <typename T, typename Op = Plus<T>>
EasyScanResult<T> scan(ScanContext& ctx, std::span<const T> input,
                       ScanKind kind = ScanKind::kInclusive,
                       std::int64_t g = 1, Op op = {}) {
  MGS_REQUIRE(g > 0 && !input.empty() &&
                  static_cast<std::int64_t>(input.size()) % g == 0,
              "easy scan: input must split evenly into G problems");
  const std::int64_t total = static_cast<std::int64_t>(input.size());
  const std::int64_t n = total / g;

  // PlanTypeOf is the erasure boundary: matrix types (and SegPair) key the
  // context's plan cache; anything else fails here at compile time and
  // must call scan_sp directly instead. A custom operator shares
  // the kPlus plan row -- plans depend on element bytes, not the operator.
  const ScanPlan& plan =
      ctx.plan_for(n, g, PlanTypeOf<T>::dtype,
                   op_tag_of_v<Op>.value_or(OpTag::kPlus),
                   /*gpus_per_problem=*/1, PlanTypeOf<T>::segmented);
  simt::Device& dev = ctx.cluster().device(0);
  // The input and output rows occupy the device for the call: an input
  // too big for it throws here, as an allocation of them would.
  const auto resident =
      dev.reserve(2 * total * static_cast<std::int64_t>(sizeof(T)));

  ctx.cluster().reset_clocks();
  EasyScanResult<T> result;
  result.output.resize(static_cast<std::size_t>(total));
  result.run = scan_sp<T, Op>(dev, input, result.output, n, g, plan, kind, op,
                              &ctx.workspace());
  return result;
}

/// Context-free spelling: builds a throwaway single-GPU cluster + context
/// for the given spec. Convenient for one-shot calls; repeated traffic
/// should hold a ScanContext and use the overload above.
template <typename T, typename Op = Plus<T>>
EasyScanResult<T> scan(std::span<const T> input,
                       ScanKind kind = ScanKind::kInclusive,
                       std::int64_t g = 1, Op op = {},
                       const sim::DeviceSpec& spec = sim::k80_spec()) {
  topo::Cluster cluster = topo::single_gpu_cluster(spec);
  ScanContext ctx(cluster);
  return scan<T, Op>(ctx, input, kind, g, op);
}

}  // namespace mgs::core
