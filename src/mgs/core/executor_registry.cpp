#include "mgs/core/executor_registry.hpp"

#include "mgs/util/check.hpp"

namespace mgs::core {

const std::vector<ExecutorInfo>& all_executors() {
  static const std::vector<ExecutorInfo> kExecutors = {
      {"Scan-SP", "single-GPU three-kernel pipeline (Section 3)",
       [](ScanContext& ctx, const ExecutorParams& p) {
         return make_sp_executor(ctx, p.device, p.dtype, p.op);
       }},
      {"Scan-MPS", "problem scattering across one node's GPUs (Section 4.1)",
       [](ScanContext& ctx, const ExecutorParams& p) {
         return make_mps_executor(ctx, p.w, /*direct=*/false,
                                  PipelineChoice{p.pipeline, p.waves},
                                  p.dtype, p.op);
       }},
      {"Scan-MPS-direct",
       "MPS with UVA peer writes into the master's auxiliary array",
       [](ScanContext& ctx, const ExecutorParams& p) {
         return make_mps_executor(ctx, p.w, /*direct=*/true,
                                  PipelineChoice{p.pipeline, p.waves},
                                  p.dtype, p.op);
       }},
      {"Scan-MP-PC",
       "per-PCIe-network groups with prioritized communications "
       "(Section 4.1.1)",
       [](ScanContext& ctx, const ExecutorParams& p) {
         return make_mppc_executor(ctx, p.y, p.v, p.m,
                                   PipelineChoice{p.pipeline, p.waves},
                                   p.dtype, p.op);
       }},
      {"Scan-MPS-multinode",
       "MPS across nodes with one MPI rank per GPU (Section 4.1)",
       [](ScanContext& ctx, const ExecutorParams& p) {
         return make_multinode_executor(ctx, p.m, p.w,
                                        PipelineChoice{p.pipeline, p.waves},
                                        p.dtype, p.op);
       }},
  };
  return kExecutors;
}

std::unique_ptr<ScanExecutor> make_executor(const std::string& name,
                                            ScanContext& ctx,
                                            const ExecutorParams& params) {
  for (const auto& info : all_executors()) {
    if (info.name == name) return info.make(ctx, params);
  }
  MGS_REQUIRE(false, "unknown executor: " + name);
  return nullptr;
}

std::unique_ptr<ScanExecutor> make_executor(ScanContext& ctx,
                                            const PlannerChoice& choice) {
  ExecutorParams p;
  p.dtype = choice.dtype;
  p.op = choice.op;
  switch (choice.proposal) {
    case Proposal::kSingleGpu:
      return make_executor("Scan-SP", ctx, p);
    case Proposal::kMps:
      p.w = choice.w;
      return make_executor("Scan-MPS", ctx, p);
    case Proposal::kMppc:
      p.y = choice.y;
      p.v = choice.v;
      p.m = choice.m;
      return make_executor("Scan-MP-PC", ctx, p);
    case Proposal::kMultiNode:
      p.m = choice.m;
      p.w = choice.w;
      return make_executor("Scan-MPS-multinode", ctx, p);
  }
  MGS_REQUIRE(false, "unhandled planner proposal");
  return nullptr;
}

}  // namespace mgs::core
