#pragma once
/// \file common.hpp
/// Shared machinery for the baseline-library models. Each baseline is a
/// *functional* re-implementation of the published algorithm on the same
/// simulated substrate as our proposals, plus a per-invocation host-API
/// overhead constant calibrated from the paper's relative measurements
/// (temp-buffer allocation, plan lookup, host synchronization -- whatever
/// the real library pays per call). See DESIGN.md, "Substitutions".

#include <string>

#include "mgs/core/plan.hpp"
#include "mgs/simt/device.hpp"
#include "mgs/simt/launch.hpp"
#include "mgs/simt/warp.hpp"

namespace mgs::baselines {

/// Identity and cost calibration of one library model.
struct BaselineTraits {
  std::string name;
  /// Host-side cost of any single invocation (dispatch, plan lookup).
  double per_call_overhead_us = 10.0;
  /// Additional cost per invocation when the library is called in a tight
  /// loop (the paper's G-invocation methodology): temporary-storage
  /// cudaMalloc/cudaFree churn, where each cudaFree synchronizes the
  /// device before the next call can be enqueued. A single cold call does
  /// not pay this, which is why the libraries look reasonable at G = 1
  /// (Figure 11) yet collapse by orders of magnitude in batch mode
  /// (Figure 12).
  double loop_extra_us = 0.0;
  bool native_batch = false;  ///< true: one invocation scans G problems
                              ///< (only CUDPP's multiScan in 2018)
};

/// Charge one invocation's host overhead: the device stream stalls for
/// the host work (allocation/synchronization) before the kernels run.
inline void charge_host_overhead(simt::Device& dev,
                                 const BaselineTraits& traits,
                                 core::RunResult& result) {
  const double s = traits.per_call_overhead_us * 1e-6;
  dev.clock().advance(s);
  result.breakdown.add("HostAPI", s);
}

}  // namespace mgs::baselines
