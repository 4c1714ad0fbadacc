#include "mgs/baselines/registry.hpp"

#include "mgs/baselines/cub.hpp"
#include "mgs/baselines/cudpp.hpp"
#include "mgs/baselines/lightscan.hpp"
#include "mgs/baselines/moderngpu.hpp"
#include "mgs/baselines/thrust.hpp"
#include "mgs/core/rows.hpp"

namespace mgs::baselines {

namespace {

using Buffer = simt::DeviceBuffer<std::int32_t>;
using Plus = core::Plus<std::int32_t>;

/// A single-problem model: scan in[offset, offset+n) into out.
using ScanOne = core::RunResult (*)(simt::Device&, const Buffer&, Buffer&,
                                    std::int64_t, std::int64_t,
                                    core::ScanKind, Plus);

ScanOne per_problem_model(const std::string& name) {
  if (name == "Thrust") return &thrust_scan<std::int32_t, Plus>;
  if (name == "ModernGPU") return &moderngpu_scan<std::int32_t, Plus>;
  if (name == "CUB") return &cub_scan<std::int32_t, Plus>;
  if (name == "LightScan") return &lightscan_scan<std::int32_t, Plus>;
  throw util::Error("no per-problem model for baseline '" + name + "'");
}

}  // namespace

const std::vector<BaselineTraits>& all_baselines() {
  static const std::vector<BaselineTraits> list = {
      cudpp_traits(), thrust_traits(), moderngpu_traits(), cub_traits(),
      lightscan_traits()};
  return list;
}

const BaselineTraits& baseline_by_name(const std::string& name) {
  for (const auto& t : all_baselines()) {
    if (t.name == name) return t;
  }
  throw util::Error("unknown baseline '" + name + "'");
}

core::RunResult run_baseline(const std::string& name, simt::Device& dev,
                             std::span<const std::int32_t> in,
                             std::span<std::int32_t> out, std::int64_t n,
                             std::int64_t g, core::ScanKind kind) {
  const BaselineTraits& traits = baseline_by_name(name);
  MGS_REQUIRE(n > 0 && g > 0, "run_baseline: N and G must be positive");
  core::detail::require_rows<std::int32_t>(in, out, n * g);
  // Read-only through `in` by contract: the models only ever store
  // through `out`.
  const auto src = dev.borrow(
      std::span<std::int32_t>(const_cast<std::int32_t*>(in.data()), in.size()));
  auto dst = dev.borrow(out);

  if (traits.native_batch) {
    return cudpp_multiscan<std::int32_t>(dev, src, dst, n, g, kind);
  }

  // The paper's methodology for the libraries without batch support: "the
  // corresponding function is also invoked G times". Calls after the first
  // pay the library's loop_extra_us (see BaselineTraits).
  const ScanOne scan_one = per_problem_model(name);
  core::RunResult total;
  total.payload_bytes =
      2ull * static_cast<std::uint64_t>(n) * g * sizeof(std::int32_t);
  const double start = dev.clock().now();
  for (std::int64_t p = 0; p < g; ++p) {
    if (p > 0 && traits.loop_extra_us > 0.0) {
      const double s = traits.loop_extra_us * 1e-6;
      dev.clock().advance(s);
      total.breakdown.add("HostLoopChurn", s);
    }
    const core::RunResult r = scan_one(dev, src, dst, p * n, n, kind, Plus{});
    total.breakdown.merge(r.breakdown);
  }
  total.seconds = dev.clock().now() - start;
  return total;
}

}  // namespace mgs::baselines
