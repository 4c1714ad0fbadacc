#pragma once
/// \file registry.hpp
/// The five baseline-library models behind one entry for int32 sums (the
/// paper's element type), used by the benchmark harnesses. The entry takes
/// the caller's G problems as spans, as scan_sp does, and follows the
/// paper's batch methodology: a library with native batch support (CUDPP's
/// multiScan) runs once over all G problems; every other library is
/// invoked once per problem. The templated models themselves (cub.hpp,
/// cudpp.hpp, ...) are the kernel layer this entry calls into.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mgs/baselines/common.hpp"
#include "mgs/core/op.hpp"
#include "mgs/core/plan.hpp"

namespace mgs::baselines {

/// All five library models, in the paper's citation order.
const std::vector<BaselineTraits>& all_baselines();

/// Look up by name ("CUDPP", "Thrust", "ModernGPU", "CUB", "LightScan");
/// throws util::Error for unknown names.
const BaselineTraits& baseline_by_name(const std::string& name);

/// Scan G problems of N contiguous int32 elements (problem g at offset
/// g*N) with library `name` on `dev`. The spans are borrowed in place as
/// memory of `dev` (placement is untimed, as in scan_sp); `out` is either
/// `in` itself or shares none of its memory (rows.hpp). Advances the
/// device clock and returns the simulated result. Throws util::Error for
/// unknown names.
core::RunResult run_baseline(const std::string& name, simt::Device& dev,
                             std::span<const std::int32_t> in,
                             std::span<std::int32_t> out, std::int64_t n,
                             std::int64_t g, core::ScanKind kind);

}  // namespace mgs::baselines
